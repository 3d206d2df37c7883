"""The partition log: Kafka's unit of replication.

``Each stream is partitioned into a fixed number of partitions, each
partition being backed by one replicated log`` (paper, Section II-A /
Figure 2). The leader's log tracks, per follower, the next offset that
follower will fetch; the **high watermark** is the minimum offset known
to be on every in-sync replica, and both producer acknowledgments
(acks=all) and consumer visibility are bounded by it.

Offsets here are *batch indexes* (one producer chunk = one record batch),
which matches how the simulation accounts work; record-level offsets are
derivable from the per-batch record counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReplicationError, StorageError
from repro.wire.chunk import Chunk


@dataclass
class PendingAck:
    """A produce request waiting for the high watermark."""

    end_offset: int
    request_id: int


class PartitionLog:
    """Leader-side replicated log of one (topic, partition)."""

    __slots__ = (
        "topic",
        "partition",
        "leader",
        "followers",
        "batches",
        "record_counts",
        "_cumulative_records",
        "follower_next",
        "high_watermark",
        "_pending",
    )

    def __init__(
        self, *, topic: int, partition: int, leader: int, followers: tuple[int, ...]
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.leader = leader
        self.followers = followers
        self.batches: list[Chunk] = []
        self.record_counts: list[int] = []
        self._cumulative_records = 0
        #: Next offset each follower will fetch == batches it already has.
        self.follower_next: dict[int, int] = {f: 0 for f in followers}
        self.high_watermark = 0
        self._pending: list[PendingAck] = []

    # -- leader write path ------------------------------------------------------

    @property
    def log_end_offset(self) -> int:
        return len(self.batches)

    @property
    def record_count(self) -> int:
        return self._cumulative_records

    def append(self, batch: Chunk) -> int:
        """Append a producer batch; returns its offset."""
        offset = len(self.batches)
        self.batches.append(batch)
        self.record_counts.append(batch.record_count)
        self._cumulative_records += batch.record_count
        if not self.followers:
            self.high_watermark = self.log_end_offset
        return offset

    def register_ack(self, end_offset: int, request_id: int) -> bool:
        """Register a pending acks=all completion; returns True if the
        high watermark already covers it (R = 1)."""
        if end_offset <= self.high_watermark:
            return True
        self._pending.append(PendingAck(end_offset=end_offset, request_id=request_id))
        return False

    # -- passive replication --------------------------------------------------------

    def advance_follower(self, follower: int, next_offset: int) -> list[int]:
        """A follower fetched up to ``next_offset``; recompute the high
        watermark and return request ids whose acks released."""
        if follower not in self.follower_next:
            raise ReplicationError(
                f"node {follower} does not follow ({self.topic}, {self.partition})"
            )
        if next_offset < self.follower_next[follower]:
            raise ReplicationError("follower offset moved backwards")
        if next_offset > self.log_end_offset:
            raise ReplicationError("follower claims data beyond the log end")
        self.follower_next[follower] = next_offset
        new_hw = min(self.log_end_offset, min(self.follower_next.values()))
        if new_hw < self.high_watermark:
            raise ReplicationError("high watermark may not regress")
        self.high_watermark = new_hw
        released = [p.request_id for p in self._pending if p.end_offset <= new_hw]
        if released:
            self._pending = [p for p in self._pending if p.end_offset > new_hw]
        return released

    def fetch_from(
        self, offset: int, *, max_bytes: int
    ) -> tuple[list[Chunk], int]:
        """Batches for a follower starting at ``offset`` (followers may
        read to the log end, unlike consumers), bounded by ``max_bytes``
        but always at least one batch when available."""
        if offset < 0 or offset > self.log_end_offset:
            raise StorageError(f"fetch offset {offset} outside log")
        out: list[Chunk] = []
        total = 0
        i = offset
        while i < self.log_end_offset:
            batch = self.batches[i]
            if out and total + batch.size > max_bytes:
                break
            out.append(batch)
            total += batch.size
            i += 1
        return out, i

    # -- consumer read path -------------------------------------------------------------

    def consumer_fetch(self, offset: int, max_batches: int) -> tuple[list[Chunk], int]:
        """Batches below the high watermark starting at ``offset``."""
        if offset < 0:
            raise StorageError("negative consumer offset")
        end = min(self.high_watermark, offset + max_batches)
        if offset >= end:
            return [], offset
        return self.batches[offset:end], end
