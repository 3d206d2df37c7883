"""High-level producer and consumer clients for the in-process cluster.

This is the public API the examples use. The producer mirrors the paper's
two-thread design collapsed into one object: :meth:`KeraProducer.send`
plays the source thread (append records to per-streamlet chunk buffers,
round-robin or by key hash), :meth:`KeraProducer.flush` plays the
requests thread (gather filled chunks into per-broker requests and push).
The consumer keeps a fetch position per (streamlet, active entry) and
iterates durably-replicated records in order. It has one fetch round,
:meth:`KeraConsumer.poll_views`: zero-copy chunk views out of the
brokers' fan-out cache, CRC-verified once at admission for every
consumer group; :meth:`KeraConsumer.poll` and :meth:`KeraConsumer.drain`
decode those views and check every record's header checksum on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.checksum import crc32c
from repro.common.errors import ConfigError
from repro.common.idgen import IdGenerator
from repro.wire.chunk import Chunk, ChunkBuilder, CHUNK_HEADER_SIZE
from repro.wire.pool import BufferPool
from repro.wire.record import Record, decode_records
from repro.wire.views import ChunkView
from repro.kera.live import LiveKeraCluster
from repro.kera.messages import FetchPosition


@dataclass
class ProducerStats:
    records_sent: int = 0
    chunks_sent: int = 0
    bytes_sent: int = 0
    requests_sent: int = 0
    duplicates_reported: int = 0


class KeraProducer:
    """Appends records to a set of streams and flushes them durably."""

    def __init__(
        self,
        cluster: LiveKeraCluster,
        producer_id: int,
        *,
        chunk_size: int | None = None,
    ) -> None:
        self.cluster = cluster
        self.producer_id = producer_id
        self.chunk_size = chunk_size or cluster.config.chunk_size
        # One scratch buffer per streamlet builder, shared through a pool
        # so records encode straight into chunk-frame memory (encode-once
        # data path); builders return them via close().
        self._pool = BufferPool(CHUNK_HEADER_SIZE + self.chunk_size)
        self._builders: dict[tuple[int, int], ChunkBuilder] = {}
        self._seqs: dict[tuple[int, int], IdGenerator] = {}
        self._ready: list[Chunk] = []
        self._rr_cursor: dict[int, int] = {}
        self.stats = ProducerStats()

    @property
    def pool(self) -> BufferPool:
        """The scratch-buffer pool (rental accounting for leak checks)."""
        return self._pool

    # -- partitioning ----------------------------------------------------------

    def _pick_streamlet(self, stream_id: int, record: Record) -> int:
        """Key hash when the record has keys, else round-robin (paper,
        Section IV-B: "round-robin or by record's key, which is hashed to
        identify a streamlet")."""
        streamlets = self.cluster.coordinator.stream(stream_id).streamlet_ids
        if record.keys:
            return streamlets[crc32c(record.keys[0]) % len(streamlets)]
        cursor = self._rr_cursor.get(stream_id, 0)
        self._rr_cursor[stream_id] = cursor + 1
        return streamlets[cursor % len(streamlets)]

    def _builder(self, stream_id: int, streamlet_id: int) -> ChunkBuilder:
        key = (stream_id, streamlet_id)
        builder = self._builders.get(key)
        if builder is None:
            builder = ChunkBuilder(
                self.chunk_size,
                stream_id=stream_id,
                streamlet_id=streamlet_id,
                producer_id=self.producer_id,
                pool=self._pool,
            )
            self._builders[key] = builder
            self._seqs[key] = IdGenerator()
        return builder

    # -- source side --------------------------------------------------------------

    def send(
        self,
        stream_id: int,
        value: bytes,
        *,
        keys: tuple[bytes, ...] = (),
        version: int | None = None,
        timestamp: int | None = None,
        streamlet_id: int | None = None,
    ) -> None:
        """Append one record; full chunks are staged for the next flush."""
        record = Record(value=value, keys=keys, version=version, timestamp=timestamp)
        if streamlet_id is None:
            streamlet_id = self._pick_streamlet(stream_id, record)
        builder = self._builder(stream_id, streamlet_id)
        if not builder.try_append(record):
            self._seal(stream_id, streamlet_id)
            if not builder.try_append(record):
                raise ConfigError(
                    f"record of {record.encoded_size()} bytes exceeds chunk "
                    f"size {self.chunk_size}"
                )

    def _seal(self, stream_id: int, streamlet_id: int) -> None:
        key = (stream_id, streamlet_id)
        builder = self._builders[key]
        if builder.is_empty:
            return
        chunk = builder.build(chunk_seq=self._seqs[key].next())
        self._ready.append(chunk)

    # -- requests side ---------------------------------------------------------------

    def flush(self) -> ProducerStats:
        """Seal every partial chunk and push everything durably.

        Exception-safe: a failed produce puts the unsent chunks back on
        the ready list, so a retrying caller re-sends them (the broker's
        exactly-once sequence check absorbs any partial first attempt).
        """
        for stream_id, streamlet_id in list(self._builders):
            self._seal(stream_id, streamlet_id)
        if not self._ready:
            return self.stats
        chunks, self._ready = self._ready, []
        try:
            responses = self.cluster.produce(chunks, producer_id=self.producer_id)
        except BaseException:
            self._ready = chunks + self._ready
            raise
        for chunk in chunks:
            self.stats.records_sent += chunk.record_count
            self.stats.chunks_sent += 1
            self.stats.bytes_sent += chunk.payload_len
        for response in responses:
            self.stats.requests_sent += 1
            self.stats.duplicates_reported += sum(
                1 for a in response.assignments if a.duplicate
            )
        return self.stats

    def close(self, *, flush: bool = True) -> ProducerStats:
        """Hand the builders' scratch buffers back to the pool, flushing
        first by default. The producer must not be used afterwards.

        The buffers go back even when the flush fails mid-close — pool
        rentals must never leak on an exception path (``pool.rented``
        returns to 0 regardless). ``flush=False`` skips the final push,
        for teardown after an error when re-sending is not wanted.
        """
        try:
            stats = self.flush() if flush else self.stats
        finally:
            for builder in self._builders.values():
                builder.close()
            self._builders.clear()
        return stats

    def __enter__(self) -> "KeraProducer":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        # On the error path don't pile a flush failure onto the original
        # exception — just return the buffers.
        self.close(flush=exc_type is None)


@dataclass
class ConsumerStats:
    records_read: int = 0
    chunks_read: int = 0
    fetches: int = 0


class KeraConsumer:
    """Pulls durably-replicated records from a set of streams, in order
    per (streamlet, entry)."""

    def __init__(
        self,
        cluster: LiveKeraCluster,
        consumer_id: int,
        stream_ids: list[int],
    ) -> None:
        self.cluster = cluster
        self.consumer_id = consumer_id
        self.stream_ids = list(stream_ids)
        q = cluster.config.storage.q_active_groups
        self._positions: dict[tuple[int, int, int], FetchPosition] = {}
        for stream_id in self.stream_ids:
            for streamlet_id in cluster.coordinator.stream(stream_id).streamlet_ids:
                for entry in range(q):
                    self._positions[(stream_id, streamlet_id, entry)] = FetchPosition(
                        stream_id=stream_id, streamlet_id=streamlet_id, entry=entry
                    )
        self.stats = ConsumerStats()

    def poll_views(self, max_chunks_per_entry: int = 16) -> list[ChunkView]:
        """One fetch round returning zero-copy chunk views; advances the
        cursors.

        Views come through the broker's fan-out cache: the frame CRC was
        re-validated at the serving boundary, once for every consumer
        group. Nothing is decoded for the caller: ``view.record_views()``
        walks the payload in place, and ``view.records()`` decodes on its
        first call and is memoized on the shared view, so it is free when
        another consumer group already asked. Payload bytes are never
        copied until the caller materializes them.
        """
        responses = self.cluster.fetch(
            list(self._positions.values()),
            consumer_id=self.consumer_id,
            max_chunks_per_entry=max_chunks_per_entry,
        )
        out: list[ChunkView] = []
        self.stats.fetches += len(responses)
        for response in responses:
            for entry in response.entries:
                pos = entry.position
                self._positions[(pos.stream_id, pos.streamlet_id, pos.entry)] = (
                    entry.next_position
                )
                out.extend(entry.chunks)  # type: ignore[arg-type]
                self.stats.chunks_read += len(entry.chunks)
                self.stats.records_read += entry.record_count
        return out

    def poll(self, max_chunks_per_entry: int = 16) -> list[Record]:
        """Like :meth:`poll_views` but decoded to records, each record's
        header checksum verified (the view's frame CRC was checked at
        admission; this re-proves every record on top)."""
        records: list[Record] = []
        for view in self.poll_views(max_chunks_per_entry):
            records.extend(decode_records(view.payload_view, verify=True))
        return records

    def drain(self, *, max_rounds: int = 1000) -> list[Record]:
        """Poll until a round returns nothing."""
        records: list[Record] = []
        for _ in range(max_rounds):
            batch = self.poll()
            if not batch:
                return records
            records.extend(batch)
        return records

    # -- offset management ------------------------------------------------------

    def positions(self) -> dict[tuple[int, int, int], FetchPosition]:
        """Snapshot of the consumer's cursors — the 'committed offsets' a
        restarted consumer resumes from."""
        return dict(self._positions)

    def seek(self, positions: dict[tuple[int, int, int], FetchPosition]) -> None:
        """Restore previously snapshotted cursors (POSIX-file-style seek:
        consumers can re-read any offset)."""
        for key, pos in positions.items():
            if key not in self._positions:
                raise ConfigError(f"position for unknown assignment {key}")
            self._positions[key] = pos

    def seek_offset(
        self, stream_id: int, streamlet_id: int, entry: int, record_offset: int
    ) -> None:
        """Position one cursor at a logical record offset.

        The offset is resolved broker-side through the per-group offset
        index on the next poll (O(log n) bisect, O(1) frames touched —
        never a scan); the poll's ``next_position`` replaces the one-shot
        seek with resolved cursor coordinates. Seeking below the retention
        floor or past the end raises
        :class:`~repro.common.errors.OffsetOutOfRangeError` from that poll.
        """
        key = (stream_id, streamlet_id, entry)
        if key not in self._positions:
            raise ConfigError(f"position for unknown assignment {key}")
        self._positions[key] = FetchPosition(
            stream_id=stream_id,
            streamlet_id=streamlet_id,
            entry=entry,
            seek_record=record_offset,
        )

    def rewind(self) -> None:
        """Reset every cursor to the beginning of its sub-partition."""
        for key in self._positions:
            stream_id, streamlet_id, entry = key
            self._positions[key] = FetchPosition(
                stream_id=stream_id, streamlet_id=streamlet_id, entry=entry
            )
