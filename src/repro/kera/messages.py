"""KerA RPC message types.

Messages are dataclasses with a ``payload_bytes()`` method giving the wire
payload size the network model charges (the framing constant is added by
the cost model). The in-process driver passes the same objects by
reference; the chunk payload bytes inside them are the real thing there.

Because the live transports hand the *same* object to a handler running
on another thread, every message is frozen with slots (analysis rule
A004): a handler can never fix a request up in place, and a stray
attribute write raises instead of silently forking state.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.wire.chunk import Chunk
from repro.wire.views import ChunkView

if TYPE_CHECKING:
    from repro.storage.segment import StoredChunk

#: ``notify(tokens)``: the watch tokens one durability step woke, in one
#: call per registered callable (``KeraBrokerCore.watch``).
WatchNotify = Callable[[list[object]], None]

#: Wire overhead per request beyond its chunks (ids, counts).
_REQUEST_HEADER_BYTES = 32
#: Wire size of one chunk assignment in a produce response.
_ASSIGNMENT_BYTES = 24
#: Wire size of one fetch position/entry header.
_POSITION_BYTES = 24


@dataclass(frozen=True, slots=True)
class ProduceRequest:
    """``Each producer request is characterized by the stream and producer
    identifiers and a set of chunks`` (paper, Section IV-B). Proxy
    producers put chunks of many streams in one request, so the stream id
    lives on each chunk."""

    request_id: int
    producer_id: int
    chunks: list[Chunk]

    def payload_bytes(self) -> int:
        return _REQUEST_HEADER_BYTES + sum(c.size for c in self.chunks)

    @property
    def record_count(self) -> int:
        return sum(c.record_count for c in self.chunks)


@dataclass(frozen=True, slots=True)
class ChunkAssignment:
    """Broker-assigned placement returned to the producer."""

    stream_id: int
    streamlet_id: int
    group_id: int
    segment_id: int
    offset: int
    duplicate: bool = False


@dataclass(frozen=True, slots=True)
class ProduceResponse:
    request_id: int
    assignments: list[ChunkAssignment]

    def payload_bytes(self) -> int:
        return _REQUEST_HEADER_BYTES + _ASSIGNMENT_BYTES * len(self.assignments)

    @property
    def record_count(self) -> int:  # pragma: no cover - convenience
        return 0


@dataclass(frozen=True, slots=True)
class FetchPosition:
    """A consumer's cursor over one (streamlet, active entry).

    ``seek_record`` is a one-shot repositioning request: when set, the
    broker resolves the logical record offset through the offset index
    (O(log n), never a scan) before pulling, and the returned
    ``next_position`` carries the resolved ``group_pos``/``chunk_pos``
    with ``seek_record`` cleared. Seeking below the retention floor or
    beyond the entry's contents raises
    :class:`~repro.common.errors.OffsetOutOfRangeError`.
    """

    stream_id: int
    streamlet_id: int
    entry: int
    group_pos: int = 0
    chunk_pos: int = 0
    seek_record: int | None = None


@dataclass(frozen=True, slots=True)
class FetchRequest:
    """One pull: up to ``max_chunks_per_entry`` durable chunks per position
    (the paper's consumers pull ``one chunk per streamlet`` per request).

    The broker answers in the binary format the producers wrote: each
    chunk is a zero-copy :class:`~repro.wire.views.ChunkView` over its
    segment frame, CRC-verified once in the shared fan-out cache
    (metadata-only segments have no bytes to view; see
    :meth:`~repro.kera.broker.KeraBrokerCore.handle_fetch`).
    """

    request_id: int
    consumer_id: int
    positions: list[FetchPosition]
    max_chunks_per_entry: int = 1
    #: A plan holding a chunk the fan-out cache does not have comes back
    #: unserved (:attr:`FetchResponse.admit`) instead of paying the
    #: boundary CRC on the calling thread — the gateway plans on its
    #: event loop and admits on a worker.
    defer_admission: bool = False
    #: ``(notify, token)`` of a long-poll: when every position plans
    #: empty the broker core registers the token as a durability watcher
    #: of the request's streamlets, atomically with the plan (see
    #: :meth:`~repro.kera.broker.KeraBrokerCore.watch`). Live drivers
    #: only — the request never leaves the caller's address space.
    watch: tuple[WatchNotify, object] | None = None

    def payload_bytes(self) -> int:
        return _REQUEST_HEADER_BYTES + _POSITION_BYTES * len(self.positions)


@dataclass(frozen=True, slots=True)
class FetchEntry:
    """Chunks for one position plus the advanced cursor.

    ``chunks`` holds verified :class:`~repro.wire.views.ChunkView`
    objects when the broker's segments are materialized, and the
    :class:`~repro.storage.segment.StoredChunk` references themselves
    when they are metadata-only (the simulator) or the admission was
    deferred — all expose ``size``/``record_count``, so the accounting
    below is form-agnostic.
    """

    position: FetchPosition
    chunks: list[ChunkView] | list[StoredChunk]
    next_position: FetchPosition

    @property
    def record_count(self) -> int:
        return sum(c.record_count for c in self.chunks)


@dataclass(frozen=True, slots=True)
class FetchResponse:
    request_id: int
    entries: list[FetchEntry]
    #: Set on the answer to a ``defer_admission`` request whose plan has a
    #: cache miss: ``entries`` then hold the planned stored-chunk
    #: references, and calling this (off the latency-critical thread)
    #: admits the frames and returns the served response.
    admit: Callable[[], "FetchResponse"] | None = None

    def payload_bytes(self) -> int:
        total = _REQUEST_HEADER_BYTES
        for entry in self.entries:
            total += _POSITION_BYTES + sum(c.size for c in entry.chunks)
        return total

    @property
    def record_count(self) -> int:
        return sum(e.record_count for e in self.entries)

    @property
    def chunk_count(self) -> int:
        return sum(len(e.chunks) for e in self.entries)


@dataclass(frozen=True, slots=True)
class ReplicateRequest:
    """One virtual-log replication RPC: a slice of a virtual segment's
    chunks shipped to one backup.

    In materialized mode the request carries ``frames`` — zero-copy
    views of the already-encoded (and placement-stamped) chunk bytes in
    the broker's segment buffers — and the backup appends them verbatim.
    ``chunks`` is the metadata fidelity (and migration) form; exactly one
    of the two is populated.
    """

    src_broker: int
    vlog_id: int
    vseg_id: int
    vseg_capacity: int
    #: CRC over the shipped chunks' CRCs (virtual segment header checksum
    #: discipline — backups verify integrity per chunk as well).
    batch_checksum: int
    chunks: list[Chunk] = field(default_factory=list)
    #: Encoded chunk frames (header + payload each), or ``None`` when the
    #: request carries ``chunks``. The views alias broker segment memory;
    #: receivers must copy (append to their own buffer) and never mutate.
    frames: tuple[bytes | memoryview, ...] | None = None
    #: Whether the frame payload CRCs were already validated over these
    #: very bytes in this address space (the broker validated them on
    #: ingest and ships views of its own segment memory). In-process
    #: transports hand the request over by reference, so the bit holds at
    #: the backup; any transport that copies the request across an
    #: address-space boundary (shared-memory ring, socket) must rebuild
    #: it with ``frames_verified=False`` so the receiver re-validates.
    frames_verified: bool = False

    def payload_bytes(self) -> int:
        from repro.replication.chunk_ref import CHUNK_REF_WIRE_SIZE

        if self.frames is not None:
            return _REQUEST_HEADER_BYTES + sum(
                len(f) + CHUNK_REF_WIRE_SIZE for f in self.frames
            )
        return _REQUEST_HEADER_BYTES + sum(
            c.size + CHUNK_REF_WIRE_SIZE for c in self.chunks
        )


@dataclass(frozen=True, slots=True)
class ReplicateResponse:
    ok: bool = True
    bytes_held: int = 0

    def payload_bytes(self) -> int:
        return 16
