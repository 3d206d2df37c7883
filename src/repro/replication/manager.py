"""The broker's replication manager: virtual logs + routing + durability.

``Multiple streams' partitions are associated with multiple virtual logs``
(paper, Section III). The manager owns every virtual log of one broker,
routes each stored chunk to its log according to the policy, and fires a
durability callback once a chunk is replicated on all its backups — the
broker core uses that callback to acknowledge producer requests and make
data visible to consumers.

With replication factor 1 there are no backups: chunks are durable the
moment the broker holds them (the broker's copy is the only copy), so the
manager short-circuits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.common.errors import ReplicationError
from repro.common.idgen import IdGenerator
from repro.replication.chunk_ref import ChunkRef
from repro.replication.config import ReplicationConfig
from repro.replication.policy import BackupSelector, ReplicationPolicy
from repro.replication.virtual_log import ReplicationBatch, VirtualLog
from repro.storage.segment import StoredChunk
from repro.wire.chunk import Chunk

DurabilityListener = Callable[[StoredChunk], None]


class ReplicationManager:
    """All virtual logs of one broker."""

    def __init__(
        self,
        *,
        broker_id: int,
        nodes: list[int],
        config: ReplicationConfig,
        on_durable: DurabilityListener | None = None,
    ) -> None:
        self.broker_id = broker_id
        self.nodes = list(nodes)
        self.config = config
        self.policy = ReplicationPolicy(config)
        self.on_durable = on_durable
        self._vlogs: dict[int, VirtualLog] = {}
        self._vseg_ids = IdGenerator()
        # Virtual logs with appends since the last batch collection.
        self._dirty: set[int] = set()

    # -- virtual log management ----------------------------------------------

    def _get_vlog(self, key: int) -> VirtualLog:
        vlog = self._vlogs.get(key)
        if vlog is None:
            selector = BackupSelector(
                primary=self.broker_id,
                nodes=self.nodes,
                copies=self.config.num_backup_copies,
            )
            # Stagger the rotation start so concurrent virtual logs spread
            # their backup sets instead of hammering the same node.
            for _ in range(key % max(len(self.nodes) - 1, 1)):
                selector.select()
            vlog = VirtualLog(
                vlog_id=key,
                config=self.config,
                selector=selector,
                vseg_ids=self._vseg_ids,
            )
            self._vlogs[key] = vlog
        return vlog

    @property
    def vlogs(self) -> list[VirtualLog]:
        return [self._vlogs[k] for k in sorted(self._vlogs)]

    @property
    def vlog_count(self) -> int:
        return len(self._vlogs)

    # -- write path ------------------------------------------------------------

    def replicate(self, stored: StoredChunk, entry: int) -> ChunkRef | None:
        """Register a freshly appended chunk for replication.

        Returns the chunk reference, or ``None`` when R = 1 (the chunk is
        then already durable and the listener has fired).
        """
        if self.config.num_backup_copies == 0:
            stored.segment.mark_chunk_durable(stored)
            if self.on_durable is not None:
                self.on_durable(stored)
            return None
        key = self.policy.vlog_key(stored.stream_id, stored.streamlet_id, entry)
        self._dirty.add(key)
        return self._get_vlog(key).append(stored)

    # -- batching (driver interface) ---------------------------------------------

    def collect_batches(self) -> list[ReplicationBatch]:
        """Batches ready to ship right now, from every dirty virtual log
        with a free pipeline slot. A log yields one batch per free slot
        (``pipeline_depth`` 1 is the classic one-at-a-time group commit).
        A log left holding unshipped work has every slot busy; the
        completion or abort that frees one makes it dirty again."""
        batches = []
        for key in sorted(self._dirty):
            vlog = self._vlogs.get(key)
            if vlog is None:
                continue
            while True:
                batch = vlog.next_batch()
                if batch is None:
                    break
                batches.append(batch)
        self._dirty = set()
        return batches

    def complete_batch(self, batch: ReplicationBatch) -> bool:
        """All backups acked: advance watermarks, fire durability events.
        True when the log has unshipped work behind the freed slot."""
        vlog = self._vlogs.get(batch.vlog_id)
        if vlog is None:
            raise ReplicationError(f"ack for unknown virtual log {batch.vlog_id}")
        durable = vlog.complete_batch(batch)
        backlog = vlog.has_unshipped()
        if backlog:
            # Work accumulated while the batch was in flight (or beyond a
            # batch cap): keep the log collectible.
            self._dirty.add(batch.vlog_id)
        if self.on_durable is not None:
            for stored in durable:
                self.on_durable(stored)
        return backlog

    def abort_batch(self, batch: ReplicationBatch) -> None:
        vlog = self._vlogs.get(batch.vlog_id)
        if vlog is None:
            raise ReplicationError(f"abort for unknown virtual log {batch.vlog_id}")
        vlog.abort_batch(batch)
        if vlog.has_unshipped():
            self._dirty.add(batch.vlog_id)

    def handle_backup_failure(self, failed_node: int) -> list[ReplicationBatch]:
        """Repair every virtual segment replicated on the failed node."""
        if failed_node in self.nodes:
            self.nodes.remove(failed_node)
        repairs: list[ReplicationBatch] = []
        for vlog in self.vlogs:
            repairs.extend(vlog.handle_backup_failure(failed_node))
        return repairs

    # -- accounting -----------------------------------------------------------

    def pending_chunks(self) -> int:
        """Chunks appended but not yet durable."""
        return sum(
            len(vseg.refs) - vseg.durable_index
            for vlog in self._vlogs.values()
            for vseg in vlog.vsegs
        )

    def total_batches(self) -> int:
        return sum(v.batches_shipped for v in self._vlogs.values())

    def total_chunks_shipped(self) -> int:
        return sum(v.chunks_shipped for v in self._vlogs.values())


def wire_chunks(batch: ReplicationBatch) -> Iterator[Chunk]:
    """Re-materialize the wire form of a batch's chunks.

    In materialized mode this re-decodes the encoded bytes straight out of
    the physical segments (placement tags included — exactly what backups
    must store for recovery); in metadata-only mode it synthesizes
    meta-chunks with identical accounting.
    """
    for ref in batch.refs:
        yield ref.stored.to_wire_chunk()
