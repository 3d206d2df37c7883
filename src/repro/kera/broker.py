"""The KerA broker core: the produce and fetch paths, sans I/O.

Produce path (paper, Section IV-B, "Replicating chunks after broker
appends"): the broker identifies the stream object for each chunk's
stream identifier, computes the streamlet's active group from the
producer identifier and Q, appends the chunk to the group (which may
create a new segment and/or group), then appends a chunk reference to the
replicated virtual log associated with that streamlet. Once all chunks of
a request are appended, the affected virtual logs are synchronized on the
backups; the producer request is acknowledged only when every one of its
chunks is durably replicated.

Exactly-once: each chunk carries ``(producer_id, chunk_seq)`` scoped to
its streamlet; retransmitted chunks are detected and never re-appended,
and a request whose duplicate chunk is still awaiting replication is
acknowledged only when the original becomes durable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.common.errors import ReplicationError
from repro.common.units import MB
from repro.replication.config import ReplicationConfig
from repro.replication.manager import ReplicationManager
from repro.replication.virtual_log import ReplicationBatch
from repro.storage.config import StorageConfig
from repro.storage.fancache import CacheKey, FanoutCache
from repro.storage.memory import SegmentAllocator
from repro.storage.offsets import StreamletCursor
from repro.storage.segment import StoredChunk
from repro.storage.stream import Stream, StreamRegistry
from repro.wire.views import ChunkView
from repro.kera.messages import (
    ChunkAssignment,
    FetchEntry,
    FetchPosition,
    FetchRequest,
    FetchResponse,
    ProduceRequest,
    ProduceResponse,
    WatchNotify,
)

RequestDoneCallback = Callable[[int], None]


def _cache_key(pos: FetchPosition, stored: StoredChunk) -> CacheKey:
    """A stored chunk's fan-out cache key. The chunk component is its
    base record offset within its group — unique and stable in append
    order, and O(1) to derive from the stored-chunk reference."""
    return (
        (pos.stream_id, pos.streamlet_id, pos.entry),
        stored.group_id,
        stored.base_record_offset,
    )


@dataclass
class ProduceOutcome:
    """What a produce request did, and whether its ack must wait."""

    request_id: int
    response: ProduceResponse
    #: Chunks newly appended by this request (excludes duplicates).
    new_chunks: list[StoredChunk] = field(default_factory=list)
    #: Number of records newly appended.
    new_records: int = 0
    #: True when the ack must wait for replication (driver parks).
    pending: bool = False
    duplicates: int = 0


class KeraBrokerCore:
    """Sans-IO broker state machine for one node."""

    def __init__(
        self,
        *,
        broker_id: int,
        nodes: list[int],
        storage_config: StorageConfig,
        replication_config: ReplicationConfig,
        on_request_complete: RequestDoneCallback | None = None,
        fanout_cache_bytes: int = 64 * MB,
    ) -> None:
        self.broker_id = broker_id
        self.storage_config = storage_config
        self.replication_config = replication_config
        self.allocator = SegmentAllocator(storage_config)
        self.registry = StreamRegistry()
        self.manager = ReplicationManager(
            broker_id=broker_id,
            nodes=nodes,
            config=replication_config,
            on_durable=self._on_chunk_durable,
        )
        self.on_request_complete = on_request_complete
        #: Shared hot-chunk cache every fetch of materialized segments is
        #: served from: N consumer groups fanning out over one stream
        #: validate each hot chunk once, keyed by (vlog, vseg, chunk).
        self.fancache = FanoutCache(fanout_cache_bytes)
        # Exactly-once state.
        self._last_durable_seq: dict[tuple[int, int, int], int] = {}
        self._inflight: dict[tuple[int, int, int, int], StoredChunk] = {}
        # Ack bookkeeping: stable chunk identity (stream, streamlet,
        # producer, chunk_seq) -> waiting request ids. Keyed by identity,
        # not id(stored): durability events may fire on another thread.
        self._chunk_waiters: dict[tuple[int, int, int, int], list[int]] = {}
        self._request_remaining: dict[int, int] = {}
        # One lock serializes all structural mutation; reentrant because
        # R=1 appends fire the durability callback inside handle_produce
        # and batch completion fires it inside complete_batch. The lock
        # keeps each produce request atomic (dup-check + append +
        # replication registration + waiter registration), which is what
        # guarantees vlog reference order matches segment append order
        # and that a request's waiters are registered before any of its
        # durability events can be observed.
        self._mutex = threading.RLock()
        # Durability watchers (long-poll fetches): (stream, streamlet) ->
        # token -> notify. Plain callables — a driver brings its own event
        # loop and deadline; this module holds neither.
        self._watchers: dict[tuple[int, int], dict[object, WatchNotify]] = {}  # guarded-by: _mutex
        self._watched: dict[object, list[tuple[int, int]]] = {}  # guarded-by: _mutex
        # Tokens woken since the last flush, per notify callable (a set: a
        # batch of several chunks wakes a token once).
        self._woken: dict[WatchNotify, set[object]] = {}  # guarded-by: _mutex
        # Stats.
        self.records_ingested = 0
        self.chunks_ingested = 0
        self.bytes_ingested = 0
        self.duplicates_dropped = 0

    # -- stream management ---------------------------------------------------

    def create_stream(self, stream_id: int, streamlet_ids: Iterable[int]) -> Stream:
        """Register the streamlets this broker leads for ``stream_id``."""
        with self._mutex:
            stream = Stream(
                stream_id=stream_id,
                streamlet_ids=streamlet_ids,
                config=self.storage_config,
                allocator=self.allocator,
            )
            self.registry.add(stream)
            return stream

    def ensure_streamlet(self, stream_id: int, streamlet_id: int) -> None:
        """Register a streamlet this broker is taking over (recovery /
        migration), idempotently and race-free against live produces."""
        with self._mutex:
            if stream_id in self.registry:
                stream = self.registry.get(stream_id)
                if streamlet_id not in stream.streamlet_ids:
                    stream.add_streamlet(streamlet_id)
            else:
                self.create_stream(stream_id, [streamlet_id])

    # -- produce path ------------------------------------------------------------

    def handle_produce(self, request: ProduceRequest) -> ProduceOutcome:
        with self._mutex:
            outcome = self._handle_produce(request)
        self._flush_wakes()  # R=1: chunks turn durable inside the append
        return outcome

    def _handle_produce(self, request: ProduceRequest) -> ProduceOutcome:
        outcome = ProduceOutcome(
            request_id=request.request_id,
            response=ProduceResponse(request_id=request.request_id, assignments=[]),
        )
        wait_chunks: list[StoredChunk] = []
        for chunk in request.chunks:
            key3 = (chunk.stream_id, chunk.streamlet_id, chunk.producer_id)
            key4 = key3 + (chunk.chunk_seq,)
            last = self._last_durable_seq.get(key3, -1)
            if chunk.chunk_seq <= last:
                # Durable duplicate: already acknowledged territory.
                outcome.duplicates += 1
                self.duplicates_dropped += 1
                outcome.response.assignments.append(
                    ChunkAssignment(
                        stream_id=chunk.stream_id,
                        streamlet_id=chunk.streamlet_id,
                        group_id=0,
                        segment_id=0,
                        offset=0,
                        duplicate=True,
                    )
                )
                continue
            pending_dup = self._inflight.get(key4)
            if pending_dup is not None:
                # Duplicate of a chunk still awaiting replication: the ack
                # must wait for the original.
                outcome.duplicates += 1
                self.duplicates_dropped += 1
                wait_chunks.append(pending_dup)
                outcome.response.assignments.append(
                    ChunkAssignment(
                        stream_id=pending_dup.stream_id,
                        streamlet_id=pending_dup.streamlet_id,
                        group_id=pending_dup.group_id,
                        segment_id=pending_dup.segment_id,
                        offset=pending_dup.offset,
                        duplicate=True,
                    )
                )
                continue
            stream = self.registry.get(chunk.stream_id)
            streamlet = stream.streamlet(chunk.streamlet_id)
            stored = streamlet.append(chunk)
            entry = streamlet.entry_for_producer(chunk.producer_id)
            self._inflight[key4] = stored
            self.manager.replicate(stored, entry)
            outcome.new_chunks.append(stored)
            outcome.new_records += stored.record_count
            self.records_ingested += stored.record_count
            self.chunks_ingested += 1
            self.bytes_ingested += stored.payload_len
            if not stored.is_durable:
                wait_chunks.append(stored)
            outcome.response.assignments.append(
                ChunkAssignment(
                    stream_id=stored.stream_id,
                    streamlet_id=stored.streamlet_id,
                    group_id=stored.group_id,
                    segment_id=stored.segment_id,
                    offset=stored.offset,
                )
            )
        if wait_chunks:
            outcome.pending = True
            self._request_remaining[request.request_id] = len(wait_chunks)
            for stored in wait_chunks:
                key4 = (
                    stored.stream_id,
                    stored.streamlet_id,
                    stored.producer_id,
                    stored.chunk_seq,
                )
                self._chunk_waiters.setdefault(key4, []).append(request.request_id)
        return outcome

    def _on_chunk_durable(self, stored: StoredChunk) -> None:
        with self._mutex:
            key3 = (stored.stream_id, stored.streamlet_id, stored.producer_id)
            last = self._last_durable_seq.get(key3, -1)
            if stored.chunk_seq > last:
                self._last_durable_seq[key3] = stored.chunk_seq
            key4 = key3 + (stored.chunk_seq,)
            self._inflight.pop(key4, None)
            if self._watchers:  # nobody long-polls: the produce path pays this test
                for token, notify in self._watchers.get(key3[:2], {}).items():
                    self._woken.setdefault(notify, set()).add(token)
            completed: list[int] = []
            for request_id in self._chunk_waiters.pop(key4, ()):
                remaining = self._request_remaining.get(request_id)
                if remaining is None:
                    raise ReplicationError(
                        f"durability event for untracked request {request_id}"
                    )
                remaining -= 1
                if remaining == 0:
                    del self._request_remaining[request_id]
                    completed.append(request_id)
                else:
                    self._request_remaining[request_id] = remaining
        if self.on_request_complete is not None:
            for request_id in completed:
                self.on_request_complete(request_id)

    # -- durability watchers -------------------------------------------------------

    def watch(
        self, streamlets: Iterable[tuple[int, int]], notify: WatchNotify, token: object
    ) -> None:
        """Call ``notify([token, ...])`` whenever a chunk of one of the
        ``(stream, streamlet)`` pairs turns durable, until :meth:`unwatch`.

        ``notify`` runs on whatever thread completed the replication
        batch, outside the core mutex, once per batch with every token of
        that callable the batch woke — it must only hand off (a long-poll
        front end posts one event-loop callback). A fetch that asks for a
        watch registers it in the same critical section that planned it
        empty (:meth:`handle_fetch`), so no chunk can turn durable unseen
        between the two."""
        keys = list(streamlets)
        with self._mutex:
            self._watched[token] = keys
            for key in keys:
                self._watchers.setdefault(key, {})[token] = notify

    def unwatch(self, token: object) -> None:
        """Drop ``token``'s watch (idempotent; unknown tokens are fine).
        Call it from the thread that registered the token: the unlocked
        membership probe keeps a never-registered token off the mutex."""
        if token not in self._watched:
            return
        with self._mutex:
            for key in self._watched.pop(token, ()):
                watchers = self._watchers.get(key)
                if watchers is not None:
                    watchers.pop(token, None)
                    if not watchers:
                        del self._watchers[key]

    def wake_watchers(self) -> None:
        """Wake every watcher now (the node is fenced, or a streamlet moved
        off it: whoever waits here must re-route, not sit out its deadline)."""
        with self._mutex:
            for watchers in self._watchers.values():
                for token, notify in watchers.items():
                    self._woken.setdefault(notify, set()).add(token)
        self._flush_wakes()

    def watcher_count(self) -> int:
        """Registered watch tokens (gauge; zero once every long-poll left)."""
        with self._mutex:
            return len(self._watched)

    def _flush_wakes(self) -> None:
        """Deliver what the durability step that just ended woke: one
        call per notify callable, outside the mutex."""
        if not self._woken:
            return
        with self._mutex:
            woken, self._woken = self._woken, {}
        for notify, tokens in woken.items():
            notify(list(tokens))

    # -- replication driver interface -----------------------------------------------

    def collect_batches(self) -> list[ReplicationBatch]:
        """Ready-to-ship batches from virtual logs touched since last call."""
        with self._mutex:
            return self.manager.collect_batches()

    def complete_batch(self, batch: ReplicationBatch) -> bool:
        """All backups acked: apply durability (in issue order). True when
        references wait behind the freed slot."""
        with self._mutex:
            backlog = self.manager.complete_batch(batch)
        self._flush_wakes()
        return backlog

    def abort_batch(self, batch: ReplicationBatch) -> None:
        """Un-issue a collected batch so its chunks re-ship later."""
        with self._mutex:
            self.manager.abort_batch(batch)

    # -- fetch path ----------------------------------------------------------------

    def handle_fetch(self, request: FetchRequest) -> FetchResponse:
        """Serve durably-replicated chunks from the requested positions.

        Cursor resolution (including ``seek_record`` repositioning through
        the offset index) happens under the broker mutex; the per-chunk
        serving work — fan-out cache admission with its boundary CRC —
        happens *outside* it, against immutable durable bytes, so
        concurrent consumer groups don't serialize on the produce path's
        lock.

        The segments decide the response form, not the caller:
        materialized segments are served as verified
        :class:`~repro.wire.views.ChunkView` objects through the fan-out
        cache; metadata-only segments (the simulator) have no bytes to
        view and are served as their :class:`StoredChunk` references.
        """
        with self._mutex:
            plans = self._plan_fetch(request)
            if request.watch is not None and not any(p[1] for p in plans):
                notify, token = request.watch
                self.watch(
                    {(p.stream_id, p.streamlet_id) for p in request.positions},
                    notify,
                    token,
                )
        if request.defer_admission and self._has_miss(plans):
            return FetchResponse(
                request_id=request.request_id,
                entries=[
                    FetchEntry(position=pos, chunks=stored, next_position=nxt)
                    for pos, stored, nxt in plans
                ],
                admit=lambda: self._serve_fetch(request, plans),
            )
        return self._serve_fetch(request, plans)

    def _has_miss(
        self, plans: list[tuple[FetchPosition, list[StoredChunk], FetchPosition]]
    ) -> bool:
        """Would serving ``plans`` admit a frame (its boundary CRC), or is
        every chunk a fan-out cache hit?"""
        return any(
            self.fancache.peek(_cache_key(pos, stored)) is None
            for pos, stored_chunks, _ in plans
            for stored in stored_chunks
        )

    def _serve_fetch(
        self,
        request: FetchRequest,
        plans: list[tuple[FetchPosition, list[StoredChunk], FetchPosition]],
    ) -> FetchResponse:
        """Turn planned chunk runs into served chunks (see
        :meth:`handle_fetch`). Lock-free: durable bytes are immutable."""
        materialized = self.storage_config.materialize
        entries: list[FetchEntry] = []
        for pos, stored_chunks, next_position in plans:
            chunks: list[ChunkView] | list[StoredChunk]
            if materialized:
                chunks = [self._serve_view(pos, s) for s in stored_chunks]
            else:
                chunks = stored_chunks
            entries.append(
                FetchEntry(position=pos, chunks=chunks, next_position=next_position)
            )
        return FetchResponse(request_id=request.request_id, entries=entries)

    def _plan_fetch(
        self, request: FetchRequest
    ) -> list[tuple[FetchPosition, list[StoredChunk], FetchPosition]]:
        """Resolve each position to its durable chunk run (mutex held)."""
        plans: list[tuple[FetchPosition, list[StoredChunk], FetchPosition]] = []
        for pos in request.positions:
            stream = self.registry.get(pos.stream_id)
            streamlet = stream.streamlet(pos.streamlet_id)
            cursor = StreamletCursor(
                streamlet=streamlet,
                entry=pos.entry,
                group_pos=pos.group_pos,
                chunk_pos=pos.chunk_pos,
            )
            if pos.seek_record is not None:
                cursor.seek_record(pos.seek_record)
            stored_chunks = cursor.next_chunks(request.max_chunks_per_entry)
            # next_position never carries seek_record: the seek is one-shot
            # and the resolved cursor coordinates replace it.
            plans.append(
                (
                    pos,
                    stored_chunks,
                    FetchPosition(
                        stream_id=pos.stream_id,
                        streamlet_id=pos.streamlet_id,
                        entry=pos.entry,
                        group_pos=cursor.group_pos,
                        chunk_pos=cursor.chunk_pos,
                    ),
                )
            )
        return plans

    def _serve_view(self, pos: FetchPosition, stored: StoredChunk) -> ChunkView:
        """Verified view of a stored chunk via the fan-out cache.

        A miss admits the frame once: CRC re-validation at the serving
        boundary (the established discipline for bytes crossing out of
        the storage engine), shared by every later consumer. Records are
        decoded only by a reader that asks for them (``view.records()``).
        """
        return self.fancache.get(_cache_key(pos, stored), stored.encoded_view)

    def retire_before(
        self, stream_id: int, streamlet_id: int, entry: int, record_offset: int
    ) -> int:
        """Retire the fully-durable group prefix of an entry below
        ``record_offset`` and drop its fan-out cache entries; return the
        number of groups retired. Consumers positioned below the new
        retention floor get :class:`OffsetOutOfRangeError` on their next
        fetch instead of stale (freed) frames."""
        with self._mutex:
            streamlet = self.registry.get(stream_id).streamlet(streamlet_id)
            retired = streamlet.retire_before(entry, record_offset)
        vlog = (stream_id, streamlet_id, entry)
        for group in retired:
            self.fancache.invalidate_group(vlog, group.group_id)
        return len(retired)

    # -- failure handling ----------------------------------------------------------

    def handle_backup_failure(self, failed_node: int) -> list[ReplicationBatch]:
        with self._mutex:
            return self.manager.handle_backup_failure(failed_node)

    # -- introspection ----------------------------------------------------------------

    def pending_requests(self) -> int:
        with self._mutex:
            return len(self._request_remaining)

    def pending_chunks(self) -> int:
        """Chunks appended but not yet durable (a draining shipper polls
        this from its own thread, hence the mutex)."""
        with self._mutex:
            return self.manager.pending_chunks()

    def inflight_chunks(self, stream_id: int, streamlet_id: int) -> int:
        """Chunks of one streamlet appended but not yet durable (a
        voluntary move waits for zero before it reads the streamlet)."""
        with self._mutex:
            return sum(key[:2] == (stream_id, streamlet_id) for key in self._inflight)
