"""Asyncio gateway clients: the wire client plus producer/consumer pair.

:class:`AsyncGatewayClient` owns one connection and multiplexes any
number of in-flight requests over it by request id — callers ``await``
their own response while others pipeline behind the same writer. On top
of it, :class:`AsyncProducer` and :class:`AsyncConsumer` mirror the
in-process :class:`~repro.kera.client.KeraProducer` /
:class:`~repro.kera.client.KeraConsumer` workflow: records append into
per-streamlet chunk builders client-side (the gateway only ever sees
sealed, CRC-stamped chunk frames), and fetch cursors advance per
(streamlet, active-entry) exactly like the native consumer.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.common.checksum import crc32c, crc32c_concat
from repro.common.errors import (
    ConfigError,
    NotLeaderError,
    RetriableRpcError,
    RpcError,
    WireFormatError,
)
from repro.wire.chunk import Chunk, ChunkBuilder, CHUNK_HEADER_SIZE
from repro.wire.netframe import (
    DEFAULT_MAX_FRAME_BYTES,
    read_frame_async,
    write_frame_async,
)
from repro.wire.pool import BufferPool
from repro.wire.record import (
    RECORD_FIXED_HEADER,
    Record,
    encode_keyless_value,
    encode_keyless_values_with_crcs,
    encode_record,
)
from repro.gateway import protocol
from repro.gateway.protocol import GatewayError
from repro.kera.messages import ChunkAssignment, FetchPosition


#: How long a fetch that finds nothing may wait server-side for data,
#: seconds, unless the call says otherwise (Kafka's ``fetch.max.wait.ms``).
DEFAULT_MAX_WAIT = 0.5


class AsyncGatewayClient:
    """One gateway connection, many in-flight requests."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future[tuple[int, bytes]]] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncGatewayClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    async def close(self) -> None:
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._fail_pending(RpcError("gateway client closed"))

    async def __aenter__(self) -> "AsyncGatewayClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- request multiplexing ------------------------------------------------

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _read_loop(self) -> None:
        try:
            while True:
                record = await read_frame_async(
                    self._reader, max_frame_bytes=self._max_frame_bytes
                )
                if record is None:
                    self._fail_pending(RpcError("gateway closed the connection"))
                    return
                kind, payload = record
                request_id = protocol.peek_request_id(payload)
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue  # response for an abandoned request
                if kind == protocol.GW_ERROR:
                    _, error = protocol.decode_error(payload)
                    future.set_exception(error)
                else:
                    future.set_result((kind, payload))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - fanned out to every waiter
            self._fail_pending(
                RpcError(f"gateway connection broke: {exc!r}")
            )

    async def _request(
        self, kind: int, parts: list, expect: int
    ) -> bytes:
        if self._closed:
            raise RpcError("gateway client closed")
        loop = asyncio.get_running_loop()
        request_id = protocol.peek_request_id(parts[0])
        future: asyncio.Future[tuple[int, bytes]] = loop.create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                write_frame_async(self._writer, kind, parts)
                await self._writer.drain()
            got_kind, payload = await future
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        if got_kind != expect:
            raise GatewayError(
                f"unexpected response kind {got_kind} (expected {expect})"
            )
        return payload

    # -- RPC surface ---------------------------------------------------------

    async def create_stream(self, stream_id: int, num_streamlets: int) -> None:
        request_id = next(self._ids)
        await self._request(
            protocol.GW_CREATE_STREAM,
            protocol.encode_create_stream(request_id, stream_id, num_streamlets),
            protocol.GW_OK,
        )

    async def meta(self, stream_id: int) -> tuple[int, int, list[int]]:
        """``(q_active_groups, chunk_size, streamlet_ids)`` for a stream."""
        request_id = next(self._ids)
        payload = await self._request(
            protocol.GW_META,
            protocol.encode_meta(request_id, stream_id),
            protocol.GW_META_OK,
        )
        _, q_active, chunk_size, streamlets = protocol.decode_meta_ok(payload)
        return q_active, chunk_size, streamlets

    async def produce(
        self, chunks: list[Chunk], *, producer_id: int
    ) -> list[ChunkAssignment]:
        """Ship sealed chunks; returns their acknowledged assignments."""
        frames = []
        for chunk in chunks:
            if chunk.wire is None:
                raise ConfigError("produce requires builder-sealed chunks (.wire)")
            frames.append(chunk.wire)
        request_id = next(self._ids)
        payload = await self._request(
            protocol.GW_PRODUCE,
            protocol.encode_produce(request_id, producer_id, frames),
            protocol.GW_PRODUCE_OK,
        )
        _, assignments = protocol.decode_produce_ok(payload)
        return assignments

    async def fetch(
        self,
        positions: list[FetchPosition],
        *,
        consumer_id: int,
        max_chunks_per_entry: int = 16,
        max_wait: float = DEFAULT_MAX_WAIT,
    ) -> list[tuple[FetchPosition, FetchPosition, list[Chunk]]]:
        """One fetch round; ``(position, next_position, chunks)`` per entry.

        A round in which *no* cursor has a durable chunk is held by the
        gateway for up to ``max_wait`` seconds and answered the moment
        one appears (long poll — no thread waits anywhere); ``max_wait=0``
        answers at once, which is what a poll-until-empty loop wants.

        This is the client's address-space boundary: the chunks come back
        validated (payload CRCs, and record checksums where one lane pass
        could cover them — see :func:`protocol.decode_fetch_ok`), or the
        call raises and delivers none of them.
        """
        request_id = next(self._ids)
        payload = await self._request(
            protocol.GW_FETCH,
            protocol.encode_fetch(
                request_id,
                consumer_id,
                positions,
                max_chunks_per_entry,
                round(min(max(max_wait, 0.0) * 1000, 0xFFFFFFFF)),  # u32 ms on the wire
            ),
            protocol.GW_FETCH_OK,
        )
        _, entries = protocol.decode_fetch_ok(payload)
        return entries


class AsyncProducer:
    """Client-side chunk building + gateway produce, KeraProducer-shaped.

    Records stage per streamlet and batch-encode into pooled chunk-frame
    scratch buffers when a chunk seals (uniform keyless batches — the
    benchmark workload — go through the lane-parallel CRC engine in one
    pass instead of one scalar checksum per record); :meth:`flush` seals
    every partial chunk and ships the frames.

    With ``max_inflight > 1`` the producer *pipelines*: every chunk
    sealed full by :meth:`send` ships immediately on its own task, up to
    ``max_inflight`` produce frames awaiting acks concurrently, and
    ``linger_ms`` bounds how long a partial chunk may sit before being
    sealed and shipped anyway. Frame order is preserved (task creation
    order plus FIFO semaphore/lock queues), so per-streamlet
    ``chunk_seq`` arrives in order at the gateway. :meth:`flush` then
    just drains the window. Note the retry caveat: if one pipelined
    frame fails while a later one succeeds, re-flushing re-sends the
    failed chunks and the broker's sequence check reports them as
    duplicates of nothing — callers that need exact retry semantics
    should keep ``max_inflight=1``.

    With ``retries > 0``, :meth:`flush` absorbs *typed* transient
    failures — ``NotLeaderError`` (a broker fenced mid-failover) and
    ``RetriableRpcError`` — by re-flushing the re-staged chunks after a
    bounded exponential backoff, up to ``retries`` attempts. Re-sent
    chunks keep their ``chunk_seq``, so the broker's exactly-once
    sequence check deduplicates anything the first attempt actually
    landed; before each retry the staged queue is re-sorted into
    per-streamlet sequence order, so chunks from several failed
    pipelined frames replay in the order the broker expects.
    """

    #: Flush failures that are safe (and useful) to retry.
    RETRYABLE = (NotLeaderError, RetriableRpcError)

    def __init__(
        self,
        client: AsyncGatewayClient,
        producer_id: int,
        *,
        stream_id: int,
        chunk_size: int,
        streamlet_ids: list[int],
        max_inflight: int = 1,
        linger_ms: float = 0.0,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.client = client
        self.producer_id = producer_id
        self.stream_id = stream_id
        self.chunk_size = chunk_size
        self.streamlet_ids = list(streamlet_ids)
        self.max_inflight = max_inflight
        self.linger_ms = linger_ms
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.retries_used = 0
        self._pool = BufferPool(CHUNK_HEADER_SIZE + chunk_size)
        self._builders: dict[int, ChunkBuilder] = {}
        # Staged-but-unencoded records per streamlet (raw value bytes for
        # keyless sends, Record objects otherwise), and their exact
        # encoded byte count. A batch staged by send_many may exceed one
        # chunk's capacity; the drain spills across chunks as it encodes.
        self._pending: dict[int, list[Record | bytes]] = {}
        self._pending_bytes: dict[int, int] = {}
        # Streamlets with staged records or a non-empty builder: the only
        # ones a flush or a linger has anything to seal.
        self._dirty: set[int] = set()
        self._seqs: dict[int, itertools.count] = {}
        self._ready: list[Chunk] = []
        self._sem = asyncio.Semaphore(max_inflight) if max_inflight > 1 else None
        self._ship_tasks: list[asyncio.Task[list[ChunkAssignment]]] = []
        self._ship_scheduled = False
        self._linger_handle: asyncio.TimerHandle | None = None
        self._rr_cursor = 0
        self.records_sent = 0
        self.chunks_sent = 0
        self.duplicates_reported = 0

    @classmethod
    async def open(
        cls,
        client: AsyncGatewayClient,
        producer_id: int,
        *,
        stream_id: int,
        max_inflight: int = 1,
        linger_ms: float = 0.0,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
    ) -> "AsyncProducer":
        """Fetch stream metadata and build a wired-up producer."""
        _, chunk_size, streamlets = await client.meta(stream_id)
        return cls(
            client,
            producer_id,
            stream_id=stream_id,
            chunk_size=chunk_size,
            streamlet_ids=streamlets,
            max_inflight=max_inflight,
            linger_ms=linger_ms,
            retries=retries,
            retry_backoff_s=retry_backoff_s,
        )

    def _pick_streamlet(self, record: Record) -> int:
        if record.keys:
            return self.streamlet_ids[
                crc32c(record.keys[0]) % len(self.streamlet_ids)
            ]
        # Sticky partitioning: non-keyed records stay on one streamlet
        # until its chunk seals (the cursor advances in _seal), so chunks
        # fill to capacity instead of fragmenting a flush across every
        # streamlet — full chunks batch-encode through the lane CRC
        # engine and cost one chunk checksum per ~capacity bytes, not one
        # per handful of records. Seal-time advancement keeps long-run
        # balance: every streamlet gets the same bytes per cycle.
        return self.streamlet_ids[self._rr_cursor % len(self.streamlet_ids)]

    def _builder(self, streamlet_id: int) -> ChunkBuilder:
        builder = self._builders.get(streamlet_id)
        if builder is None:
            builder = ChunkBuilder(
                self.chunk_size,
                stream_id=self.stream_id,
                streamlet_id=streamlet_id,
                producer_id=self.producer_id,
                pool=self._pool,
            )
            self._builders[streamlet_id] = builder
            self._pending[streamlet_id] = []
            self._pending_bytes[streamlet_id] = 0
            self._seqs[streamlet_id] = itertools.count()
        return builder

    def send(
        self,
        value: bytes,
        *,
        keys: tuple[bytes, ...] = (),
        streamlet_id: int | None = None,
    ) -> None:
        """Append one record; full chunks are staged for the next flush."""
        if keys:
            record: Record | bytes = Record(value=value, keys=keys)
            size = record.encoded_size()
            if streamlet_id is None:
                streamlet_id = self._pick_streamlet(record)
        else:
            # Benchmark-workload fast path: no Record object per send —
            # raw values stage directly and batch-encode at seal time.
            record = value
            size = RECORD_FIXED_HEADER + len(value)
            if streamlet_id is None:
                streamlet_id = self.streamlet_ids[
                    self._rr_cursor % len(self.streamlet_ids)
                ]
        builder = self._builder(streamlet_id)
        if size > self.chunk_size:
            # Same contract (and message) as ChunkBuilder.try_append: a
            # record no chunk could ever hold is a hard error.
            raise WireFormatError(
                f"record of {size} bytes exceeds chunk capacity {self.chunk_size}"
            )
        if self._pending_bytes[streamlet_id] + size > builder.remaining():
            self._seal(streamlet_id)
        self._pending[streamlet_id].append(record)
        self._pending_bytes[streamlet_id] += size
        self._dirty.add(streamlet_id)
        if self._sem is not None:
            self._maybe_ship()
            if self.linger_ms > 0 and self._linger_handle is None:
                self._linger_handle = asyncio.get_running_loop().call_later(
                    self.linger_ms / 1000.0, self._linger_fire
                )

    def send_many(self, values: list[bytes]) -> None:
        """Append many keyless records in one call.

        Equivalent to ``for v in values: self.send(v)`` — same sticky
        partitioning, same seal/rotate behavior — but the per-record
        bookkeeping (dict probes, linger checks, ship scheduling)
        amortizes across the batch: values stage in capacity-sized
        slices with one list extend per slice.
        """
        if not values:
            return
        header = RECORD_FIXED_HEADER
        total = 0
        for value in values:
            size = header + len(value)
            if size > self.chunk_size:
                raise WireFormatError(
                    f"record of {size} bytes exceeds chunk capacity "
                    f"{self.chunk_size}"
                )
            total += size
        streamlet_id = self.streamlet_ids[
            self._rr_cursor % len(self.streamlet_ids)
        ]
        self._builder(streamlet_id)
        # The whole batch stages on one streamlet even past chunk
        # capacity — the drain spills across as many chunks as needed,
        # all from a single batch encode. Unlike send(), nothing seals
        # mid-batch; the flush/linger that follows pays one engine pass
        # for every chunk this batch produced.
        self._pending[streamlet_id].extend(values)
        self._pending_bytes[streamlet_id] += total
        self._dirty.add(streamlet_id)
        if self._sem is not None:
            self._maybe_ship()
            if self.linger_ms > 0 and self._linger_handle is None:
                self._linger_handle = asyncio.get_running_loop().call_later(
                    self.linger_ms / 1000.0, self._linger_fire
                )

    def _drain_pending(self, streamlet_id: int) -> None:
        """Batch-encode staged records into the streamlet's builder.

        A staged batch may exceed one chunk's capacity (see
        :meth:`send_many`): uniform keyless batches encode in a *single*
        engine pass and the blob splits into capacity-sized appends,
        building each chunk that fills mid-drain; anything else appends
        record by record with the same spill behavior.
        """
        records = self._pending.get(streamlet_id)
        if not records:
            return
        builder = self._builders[streamlet_id]
        value_len = len(records[0]) if type(records[0]) is bytes else -1
        if value_len >= 0 and all(
            type(r) is bytes and len(r) == value_len for r in records
        ):
            # One engine pass encodes the whole batch; the record CRCs it
            # computes compose each chunk's payload checksum, so sealing
            # never re-reads the payload bytes.
            encoded, rec_crcs = encode_keyless_values_with_crcs(records)
            rec_size = RECORD_FIXED_HEADER + value_len
            done, n = 0, len(records)
            while done < n:
                take = min(n - done, builder.remaining() // rec_size)
                if take:
                    slice_crc = (
                        crc32c_concat(rec_crcs[done : done + take], rec_size)
                        if rec_crcs is not None
                        else None
                    )
                    if not builder.try_append_encoded(
                        encoded[done * rec_size : (done + take) * rec_size],
                        take,
                        payload_crc=slice_crc,
                    ):
                        raise AssertionError(
                            "capacity-sized slice did not fit (drain invariant)"
                        )
                    done += take
                if done < n:
                    self._build_chunk(streamlet_id)
        else:
            for r in records:
                one = (
                    encode_keyless_value(r)
                    if type(r) is bytes
                    else encode_record(r)
                )
                if not builder.try_append_encoded(one, 1):
                    self._build_chunk(streamlet_id)
                    if not builder.try_append_encoded(one, 1):
                        raise AssertionError(
                            "record exceeds empty chunk (send() size check)"
                        )
        records.clear()
        self._pending_bytes[streamlet_id] = 0

    def _build_chunk(self, streamlet_id: int) -> None:
        """Seal the streamlet's current chunk into the ready queue."""
        builder = self._builders[streamlet_id]
        self._ready.append(builder.build(chunk_seq=next(self._seqs[streamlet_id])))
        # Rotate the sticky cursor off a streamlet whose chunk just
        # sealed, whether it filled naturally or a flush cut it short.
        if self.streamlet_ids[self._rr_cursor % len(self.streamlet_ids)] == streamlet_id:
            self._rr_cursor += 1

    def _seal(self, streamlet_id: int) -> None:
        self._drain_pending(streamlet_id)
        if not self._builders[streamlet_id].is_empty:
            self._build_chunk(streamlet_id)
        self._dirty.discard(streamlet_id)

    def _seal_all(self) -> None:
        """Seal every streamlet that holds anything, in builder-creation
        order (what a scan of all builders did: frames are unchanged)."""
        if self._dirty:
            for streamlet_id in [s for s in self._builders if s in self._dirty]:
                self._seal(streamlet_id)

    # -- pipelined shipping (max_inflight > 1) --------------------------------

    def _maybe_ship(self) -> None:
        """Schedule staged chunks to ship on the next loop tick.

        The one-tick deferral batches chunks that seal back to back —
        e.g. a capacity-sealed chunk followed immediately by a flush's
        partial — into a single produce frame instead of one frame per
        chunk; :meth:`flush` ships inline so nothing waits on the tick.
        """
        if self._sem is None or not self._ready or self._ship_scheduled:
            return
        self._ship_scheduled = True
        asyncio.get_running_loop().call_soon(self._ship_now)

    def _ship_now(self) -> None:
        self._ship_scheduled = False
        if not self._ready:
            return
        chunks, self._ready = self._ready, []
        self._ship_tasks.append(
            asyncio.get_running_loop().create_task(self._ship(chunks))
        )

    def _linger_fire(self) -> None:
        self._linger_handle = None
        self._seal_all()
        self._ship_now()

    async def _ship(self, chunks: list[Chunk]) -> list[ChunkAssignment]:
        assert self._sem is not None
        async with self._sem:
            try:
                assignments = await self.client.produce(
                    chunks, producer_id=self.producer_id
                )
            except BaseException:
                # Re-stage for a retry flush, ahead of anything newer.
                self._ready = chunks + self._ready
                raise
        for chunk in chunks:
            self.records_sent += chunk.record_count
            self.chunks_sent += 1
        self.duplicates_reported += sum(1 for a in assignments if a.duplicate)
        return assignments

    async def flush(self) -> list[ChunkAssignment]:
        """Seal partial chunks and produce everything staged.

        Exception-safe like the native producer: a failed produce puts
        the chunks back so a retry re-sends them (the broker's
        exactly-once sequence check absorbs partial first attempts).
        Pipelined mode additionally drains the in-flight window and
        raises the first ship failure, if any. With ``retries > 0``,
        typed transient failures (:attr:`RETRYABLE`) re-flush after a
        bounded backoff instead of surfacing.
        """
        attempts_left = self.retries
        backoff = self.retry_backoff_s
        while True:
            try:
                return await self._flush_once()
            except self.RETRYABLE:
                if attempts_left <= 0:
                    raise
                attempts_left -= 1
                self.retries_used += 1
                # Re-staged chunks from several failed pipelined frames
                # may have prepended out of order; the broker needs each
                # streamlet's chunk_seq back in sequence.
                self._ready.sort(key=lambda c: (c.streamlet_id, c.chunk_seq))
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, 1.0)

    async def _flush_once(self) -> list[ChunkAssignment]:
        if self._linger_handle is not None:
            self._linger_handle.cancel()
            self._linger_handle = None
        self._seal_all()
        if self._sem is not None:
            self._ship_now()
            tasks, self._ship_tasks = self._ship_tasks, []
            assignments: list[ChunkAssignment] = []
            first_error: BaseException | None = None
            if tasks:
                for result in await asyncio.gather(*tasks, return_exceptions=True):
                    if isinstance(result, BaseException):
                        if first_error is None:
                            first_error = result
                    else:
                        assignments.extend(result)
            if first_error is not None:
                raise first_error
            return assignments
        if not self._ready:
            return []
        chunks, self._ready = self._ready, []
        try:
            assignments = await self.client.produce(
                chunks, producer_id=self.producer_id
            )
        except BaseException:
            self._ready = chunks + self._ready
            raise
        for chunk in chunks:
            self.records_sent += chunk.record_count
            self.chunks_sent += 1
        self.duplicates_reported += sum(1 for a in assignments if a.duplicate)
        return assignments

    async def close(self, *, flush: bool = True) -> None:
        try:
            if flush:
                await self.flush()
        finally:
            for builder in self._builders.values():
                builder.close()
            self._builders.clear()
            self._dirty.clear()


class AsyncConsumer:
    """Cursor-per-(streamlet, entry) pulls over the gateway."""

    def __init__(
        self,
        client: AsyncGatewayClient,
        consumer_id: int,
        *,
        stream_id: int,
        q_active_groups: int,
        streamlet_ids: list[int],
    ) -> None:
        self.client = client
        self.consumer_id = consumer_id
        self.stream_id = stream_id
        self._positions: dict[tuple[int, int], FetchPosition] = {}
        for streamlet_id in streamlet_ids:
            for entry in range(q_active_groups):
                self._positions[(streamlet_id, entry)] = FetchPosition(
                    stream_id=stream_id, streamlet_id=streamlet_id, entry=entry
                )
        self.records_read = 0
        self.chunks_read = 0

    @classmethod
    async def open(
        cls, client: AsyncGatewayClient, consumer_id: int, *, stream_id: int
    ) -> "AsyncConsumer":
        q_active, _, streamlets = await client.meta(stream_id)
        return cls(
            client,
            consumer_id,
            stream_id=stream_id,
            q_active_groups=q_active,
            streamlet_ids=streamlets,
        )

    async def poll_chunks(
        self, max_chunks_per_entry: int = 16, *, max_wait: float = DEFAULT_MAX_WAIT
    ) -> list[Chunk]:
        """One fetch round over every cursor; advances them. An empty
        round waits up to ``max_wait`` seconds server-side for the first
        durable chunk (see :meth:`AsyncGatewayClient.fetch`)."""
        entries = await self.client.fetch(
            list(self._positions.values()),
            consumer_id=self.consumer_id,
            max_chunks_per_entry=max_chunks_per_entry,
            max_wait=max_wait,
        )
        out: list[Chunk] = []
        for position, next_position, chunks in entries:
            self._positions[(position.streamlet_id, position.entry)] = next_position
            out.extend(chunks)
            self.chunks_read += len(chunks)
            self.records_read += sum(c.record_count for c in chunks)
        return out

    async def poll(
        self, max_chunks_per_entry: int = 16, *, max_wait: float = DEFAULT_MAX_WAIT
    ) -> list[Record]:
        """One fetch round, decoded. ``Chunk.records()`` verifies whatever
        the fetch boundary's batch pass did not already (``records_verified``)."""
        records: list[Record] = []
        for chunk in await self.poll_chunks(max_chunks_per_entry, max_wait=max_wait):
            records.extend(chunk.records())
        return records

    async def drain(self, *, max_rounds: int = 1000) -> list[Record]:
        """Poll until a round returns nothing (never waits: ``max_wait=0``)."""
        records: list[Record] = []
        for _ in range(max_rounds):
            batch = await self.poll(max_wait=0)
            if not batch:
                return records
            records.extend(batch)
        return records
