"""Streamlet migration: horizontal scalability without failures.

``M represents the maximum number of nodes that can ingest and store a
stream's records (ensuring horizontal scalability through migration of
streamlets to new brokers)`` (paper, Section IV-A). A migration is the
recovery move (:func:`repro.kera.recovery.move_streamlets`) sourced from
the *live* leader instead of the backups, on any live driver and under
load: the streamlet — not the node — is fenced, its in-flight chunks
become durable, its groups are replayed into the target through the
ordinary produce path (placement tags and exactly-once sequence numbers
travel with every chunk), and the coordinator flips leadership. This
module is the source adapter and the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.common.errors import ReplicationError
from repro.kera.coordinator import RecoveryPlan
from repro.kera.live import LiveKeraCluster
from repro.kera.recovery import MoveSource, Run, move_streamlets


@dataclass
class MigrationReport:
    """What one streamlet migration moved."""

    stream_id: int
    streamlet_id: int
    source: int
    target: int
    chunks_moved: int = 0
    records_moved: int = 0
    bytes_moved: int = 0


class LeaderSource(MoveSource):
    """One streamlet, read from the live broker that leads it. After the
    commit the fence stays (the old leader answers ``NotLeaderError(
    leader=target)``) and its copy is garbage a real system would reclaim
    lazily; only the fetches parked on the old leader are let go."""

    def __init__(self, leader: int, stream_id: int, streamlet_id: int) -> None:
        self.leader = leader
        self.stream_id = stream_id
        self.streamlet_id = streamlet_id

    def fence(self, cluster: LiveKeraCluster) -> None:
        cluster.broker_service(self.leader).fence_streamlet(
            self.stream_id, self.streamlet_id
        )

    def gather(self, cluster: LiveKeraCluster, plan: RecoveryPlan) -> dict[int, list[Run]]:
        core = cluster.brokers[self.leader]
        # The fence stopped new appends; what was appended before it must
        # be durable (acked or about to be) before it is copied — a chunk
        # that never becomes durable was never acked and must not move.
        deadline = time.monotonic() + cluster.ack_timeout
        while core.inflight_chunks(self.stream_id, self.streamlet_id):
            if time.monotonic() >= deadline:
                raise ReplicationError(
                    f"streamlet ({self.stream_id}, {self.streamlet_id}) still has "
                    f"chunks in flight on broker {self.leader} after "
                    f"{cluster.ack_timeout}s; not migrating"
                )
            time.sleep(0.001)
        streamlet = core.registry.get(self.stream_id).streamlet(self.streamlet_id)
        # One run per group, in creation order: per-entry append order.
        runs = [
            (group.group_id, [stored.to_wire_chunk() for stored in group.chunks()])
            for group in streamlet.groups
            if group.chunk_count
        ]
        (target,) = plan.reassignments.values()
        return {target: runs} if runs else {}

    def abandon(self, cluster: LiveKeraCluster) -> None:
        cluster.broker_service(self.leader).unfence_streamlet(
            self.stream_id, self.streamlet_id
        )

    def release(self, cluster: LiveKeraCluster) -> None:
        # Woken, a fetch parked here re-plans against the new leader
        # instead of sitting out max_wait (the rest re-plan empty).
        cluster.brokers[self.leader].wake_watchers()


def migrate_streamlet(
    cluster: LiveKeraCluster, stream_id: int, streamlet_id: int, target: int
) -> MigrationReport:
    """Move one streamlet's leadership (and data) to ``target``."""
    plan = cluster.coordinator.plan_migration(stream_id, streamlet_id, target)
    replayed = move_streamlets(
        cluster, plan, LeaderSource(plan.source, stream_id, streamlet_id)
    )
    return MigrationReport(
        stream_id=stream_id,
        streamlet_id=streamlet_id,
        source=plan.source,
        target=target,
        chunks_moved=sum(lane.chunks - lane.duplicates for lane in replayed),
        records_moved=sum(lane.records for lane in replayed),
        bytes_moved=sum(lane.bytes for lane in replayed),
    )
