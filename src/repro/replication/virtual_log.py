"""The virtual log: ordered virtual segments, group-commit batching.

``Each virtual log is composed of a set of virtual segments to be
replicated, always a single open virtual segment (the replication of the
virtual log resembles RAMCloud's log implementation)`` (paper,
Section IV-B).

Batching discipline: a virtual log keeps at most ``pipeline_depth``
replication RPCs in flight — **one** by default. While its slots are
busy, new chunk references accumulate; the next batch ships everything
that accumulated (bounded by the optional config caps). This
self-clocking group commit is what consolidates many partitions' small
appends into large backup I/Os — and, inversely, what makes *too many*
virtual logs degenerate into per-chunk RPCs (Figures 14-16's 40-50%
drop).

Batches are issued in cursor order and acks may return in any order, but
durability is *applied* strictly in issue order — an ack for a later
batch is buffered until every earlier batch has acked, so
``mark_chunk_durable``'s in-append-order invariant holds at any depth.
Repair batches (:meth:`VirtualLog.handle_backup_failure`) re-ship what is
already durable: they never enter the flight table or move the cursor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ReplicationError, SegmentFullError
from repro.common.idgen import IdGenerator
from repro.replication.chunk_ref import ChunkRef, CHUNK_REF_WIRE_SIZE
from repro.replication.config import ReplicationConfig
from repro.replication.policy import BackupSelector
from repro.replication.virtual_segment import VirtualSegment
from repro.storage.segment import StoredChunk


@dataclass
class ReplicationBatch:
    """One replication RPC's worth of chunks, bound to one virtual segment
    (batches never span virtual segments — backup sets differ)."""

    batch_id: int
    vlog_id: int
    vseg: VirtualSegment
    refs: list[ChunkRef]
    #: True when this batch re-ships already-durable refs after a backup
    #: loss (repair traffic does not advance durability watermarks).
    repair: bool = False
    #: Overridden backup set for repair batches (the replacement node).
    repair_backups: tuple[int, ...] = field(default=())
    #: Per-virtual-log issue sequence, stamped by ``VirtualLog.next_batch``
    #: and used to apply acks in issue order. -1 on repair batches, which
    #: are built outside the shipping cursor and never advance it.
    issue_seq: int = field(default=-1, compare=False)

    @property
    def backups(self) -> tuple[int, ...]:
        return self.repair_backups if self.repair else self.vseg.backups

    @property
    def chunk_count(self) -> int:
        return len(self.refs)

    @property
    def payload_bytes(self) -> int:
        """Wire payload: the chunks plus per-chunk reference metadata."""
        return sum(r.length + CHUNK_REF_WIRE_SIZE for r in self.refs)


class VirtualLog:
    """One shared replicated virtual log of a broker."""

    __slots__ = (
        "vlog_id",
        "config",
        "selector",
        "vsegs",
        "_vseg_ids",
        "_batch_ids",
        "_inflight",
        "_acked",
        "_issue_seq",
        "_apply_seq",
        "_ship_vseg_index",
        "_ship_ref_index",
        "_stats_batches",
        "_stats_chunks",
        "_stats_bytes",
    )

    def __init__(
        self,
        *,
        vlog_id: int,
        config: ReplicationConfig,
        selector: BackupSelector,
        vseg_ids: IdGenerator | None = None,
    ) -> None:
        self.vlog_id = vlog_id
        self.config = config
        self.selector = selector
        self.vsegs: list[VirtualSegment] = []
        self._vseg_ids = vseg_ids or IdGenerator()
        self._batch_ids = IdGenerator()
        # In-flight batches by batch id, in issue order (at most
        # config.pipeline_depth of them).
        self._inflight: dict[int, ReplicationBatch] = {}
        # Acked batches waiting for earlier issues to ack (out-of-order
        # completions buffer), keyed by issue sequence.
        self._acked: dict[int, ReplicationBatch] = {}
        self._issue_seq = 0
        self._apply_seq = 0
        # Shipping cursor: next (vseg index, ref index) to put in a batch.
        self._ship_vseg_index = 0
        self._ship_ref_index = 0
        self._stats_batches = 0
        self._stats_chunks = 0
        self._stats_bytes = 0

    # -- append path -------------------------------------------------------

    @property
    def open_vseg(self) -> VirtualSegment | None:
        if self.vsegs and not self.vsegs[-1].sealed:
            return self.vsegs[-1]
        return None

    def _roll_vseg(self) -> VirtualSegment:
        if self.vsegs:
            self.vsegs[-1].seal()
        vseg = VirtualSegment(
            vlog_id=self.vlog_id,
            vseg_id=self._vseg_ids.next(),
            capacity=self.config.virtual_segment_size,
            backups=self.selector.select(),
        )
        self.vsegs.append(vseg)
        return vseg

    def append(self, stored: StoredChunk) -> ChunkRef:
        """Reference a freshly stored chunk; rolls the virtual segment
        (choosing a fresh backup set) when virtual space runs out."""
        vseg = self.open_vseg
        if vseg is None:
            vseg = self._roll_vseg()
        try:
            return vseg.append_ref(stored)
        except SegmentFullError:
            vseg = self._roll_vseg()
            return vseg.append_ref(stored)

    # -- batching -----------------------------------------------------------

    def has_unshipped(self) -> bool:
        if self._ship_vseg_index >= len(self.vsegs):
            return False
        if self._ship_vseg_index < len(self.vsegs) - 1:
            return True
        return self._ship_ref_index < len(self.vsegs[-1].refs)

    @property
    def in_flight(self) -> bool:
        """Whether any replication RPC for this vlog is in flight."""
        return bool(self._inflight)

    def next_batch(self) -> ReplicationBatch | None:
        """Build the next batch if a pipeline slot is free and work exists.

        Ships strictly in order; a batch covers references from a single
        virtual segment. The caller must invoke :meth:`complete_batch`
        (or :meth:`abort_batch`) exactly once per returned batch. At most
        ``pipeline_depth`` batches (default 1) are out at a time.
        """
        if len(self._inflight) >= self.config.pipeline_depth or not self.has_unshipped():
            return None
        # Skip fully-shipped vsegs (all refs shipped, cursor at end).
        while (
            self._ship_vseg_index < len(self.vsegs) - 1
            and self._ship_ref_index >= len(self.vsegs[self._ship_vseg_index].refs)
        ):
            self._ship_vseg_index += 1
            self._ship_ref_index = 0
        vseg = self.vsegs[self._ship_vseg_index]
        refs = vseg.refs[self._ship_ref_index :]
        if not refs:
            return None
        if self.config.max_batch_chunks:
            refs = refs[: self.config.max_batch_chunks]
        if self.config.max_batch_bytes:
            capped: list[ChunkRef] = []
            total = 0
            for ref in refs:
                if capped and total + ref.length > self.config.max_batch_bytes:
                    break
                capped.append(ref)
                total += ref.length
            refs = capped
        batch = ReplicationBatch(
            batch_id=self._batch_ids.next(),
            vlog_id=self.vlog_id,
            vseg=vseg,
            refs=list(refs),
            issue_seq=self._issue_seq,
        )
        self._issue_seq += 1
        self._inflight[batch.batch_id] = batch
        self._ship_ref_index += len(refs)
        self._stats_batches += 1
        self._stats_chunks += len(refs)
        self._stats_bytes += batch.payload_bytes
        return batch

    def complete_batch(self, batch: ReplicationBatch) -> list[StoredChunk]:
        """All backups acked ``batch``: advance durability watermarks.

        Returns the stored chunks that became durable, in order. Also
        advances the *physical* segments' durable heads — ``after a chunk
        is replicated, the runtime updates the durable head of the
        physical segment so that consumers can pull records up to it``.

        Acks may arrive in any order among in-flight batches; completions
        are buffered and *applied* strictly in issue order, so an early
        ack for a later batch returns ``[]`` and its chunks surface once
        every earlier batch has acked.
        """
        if self._inflight.pop(batch.batch_id, None) is None:
            raise ReplicationError("complete_batch without a batch in flight")
        self._acked[batch.issue_seq] = batch
        done: list[StoredChunk] = []
        while self._apply_seq in self._acked:
            done.extend(self._apply_completion(self._acked.pop(self._apply_seq)))
            self._apply_seq += 1
        return done

    def _apply_completion(self, batch: ReplicationBatch) -> list[StoredChunk]:
        """Advance watermarks for one fully-acked batch (in issue order)."""
        if batch.refs and batch.refs[0].ref_index != batch.vseg.durable_index:
            raise ReplicationError(
                f"batch acked out of order: starts at ref {batch.refs[0].ref_index}, "
                f"durable index is {batch.vseg.durable_index}"
            )
        done = batch.vseg.mark_replicated(len(batch.refs))
        stored_chunks = []
        for ref in done:
            ref.stored.segment.mark_chunk_durable(ref.stored)
            stored_chunks.append(ref.stored)
        return stored_chunks

    def abort_batch(self, batch: ReplicationBatch) -> None:
        """A backup failed mid-flight: rewind the cursor so the batch's
        references are re-shipped (to the repaired backup set).

        Aborting a batch also drops every in-flight or ack-buffered batch
        issued after it — their references sit at or beyond the rewound
        cursor and will be re-issued. (None of them can have applied:
        application is strictly in issue order.)
        """
        if batch.batch_id not in self._inflight:
            raise ReplicationError("abort_batch without a batch in flight")
        for later in [
            b for b in self._inflight.values() if b.issue_seq >= batch.issue_seq
        ]:
            del self._inflight[later.batch_id]
        for seq in [s for s in self._acked if s >= batch.issue_seq]:
            del self._acked[seq]
        self._issue_seq = batch.issue_seq
        # Rewind to the start of the aborted batch.
        vseg_index = self.vsegs.index(batch.vseg)
        self._ship_vseg_index = vseg_index
        self._ship_ref_index = batch.refs[0].ref_index if batch.refs else 0

    # -- failure handling ------------------------------------------------------

    def handle_backup_failure(self, failed_node: int) -> list[ReplicationBatch]:
        """Swap the failed backup out of every affected virtual segment and
        emit repair batches re-shipping the already-durable prefix to the
        replacement node. Durability watermarks are untouched — the data
        still exists on the broker and the surviving backups; repair
        restores the copy count."""
        self.selector.remove_candidate(failed_node)
        repairs: list[ReplicationBatch] = []
        for vseg in self.vsegs:
            if failed_node not in vseg.backups:
                continue
            new_backups = self.selector.replace(vseg.backups, failed_node)
            replacement = tuple(set(new_backups) - set(vseg.backups))
            vseg.backups = new_backups
            durable_prefix = vseg.refs[: vseg.durable_index]
            if durable_prefix:
                repairs.append(
                    ReplicationBatch(
                        batch_id=self._batch_ids.next(),
                        vlog_id=self.vlog_id,
                        vseg=vseg,
                        refs=list(durable_prefix),
                        repair=True,
                        repair_backups=replacement,
                    )
                )
        return repairs

    # -- stats -----------------------------------------------------------------

    @property
    def batches_shipped(self) -> int:
        return self._stats_batches

    @property
    def chunks_shipped(self) -> int:
        return self._stats_chunks

    @property
    def bytes_shipped(self) -> int:
        return self._stats_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualLog(id={self.vlog_id}, vsegs={len(self.vsegs)}, "
            f"in_flight={self.in_flight}, shipped={self._stats_chunks} chunks)"
        )
