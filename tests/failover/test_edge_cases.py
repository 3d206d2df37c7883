"""Failover edge cases: mid-migration kills, idle victims, double kills.

The invariant under test everywhere: an acked record is never silently
lost and never silently duplicated — when recovery is impossible the
failure surfaces as a *typed* error, and when data already lives in two
places (a half-finished migration) the exactly-once dedup absorbs the
overlap.
"""

import pytest

from repro.common.errors import NotLeaderError, ReplicationError, RpcError
from repro.common.units import KB
from repro.failover import FailoverPlane
from repro.failover.chaos import _fetch_all_values, kill_node
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, ThreadedKeraCluster, migrate_streamlet
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record, encode_records


def _config():
    return KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
        chunk_size=4 * KB,
    )


def _chunk(stream_id, streamlet_id, producer_id, seq, text):
    builder = ChunkBuilder(
        256,
        stream_id=stream_id,
        streamlet_id=streamlet_id,
        producer_id=producer_id,
    )
    assert builder.try_append_encoded(
        encode_records([Record(value=text.encode())]), 1
    )
    return builder.build(seq)


def test_kill_during_migration_stays_exactly_once(monkeypatch):
    """The worst interleave: a streamlet's data has been copied to a
    migration target but leadership has NOT flipped when the source dies.
    Recovery replays the backups into the new leader; wherever that
    replay lands, the consumer must see every acked record exactly once.
    """
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(10, 4)
            victim = cluster.leader_of(10, 0)
            sid = 0
            n = 6
            for seq in range(n):
                cluster.produce(
                    [_chunk(10, sid, 77, seq, f"m-{seq}")], producer_id=77
                )

            # The real move machine, interrupted between replay and
            # commit: fence, copy and replay ran, the flip did not.
            target = next(
                b for b in cluster.live_broker_ids if b != victim
            )

            def interrupted(plan):
                raise RuntimeError("interrupted before the flip")

            with monkeypatch.context() as patch:
                patch.setattr(cluster.coordinator, "commit_recovery", interrupted)
                with pytest.raises(RuntimeError, match="before the flip"):
                    migrate_streamlet(cluster, 10, sid, target)
            copied = cluster.brokers[target].registry.get(10).streamlet(sid)
            assert copied.record_count == n
            assert cluster.leader_of(10, sid) == victim  # flip never happened
            # The abandoned move lifted its fence: the source serves on.
            cluster.produce([_chunk(10, sid, 77, n, f"m-{n}")], producer_id=77)
            n += 1

            kill_node(cluster, victim)
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            new_leader = cluster.leader_of(10, sid)
            assert new_leader != victim
            if new_leader == target:
                # Replay landed on the migrated copy: dedup absorbed it.
                assert report.duplicates_dropped >= n - 1

            values = _fetch_all_values(cluster, 10, 4)
            mine = [v for v in values if v.startswith(b"m-")]
            assert sorted(mine) == sorted(
                f"m-{seq}".encode() for seq in range(n)
            ), "migrated streamlet not exactly-once after failover"


def test_kill_of_broker_leading_nothing_is_fence_only():
    """A node that leads zero streamlets still dies cleanly: the plan is
    empty, no lanes run, and fencing IS the recovery."""
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(11, 3)  # 4 brokers, 3 streamlets
            leaders = {cluster.leader_of(11, sid) for sid in range(3)}
            victim = next(
                b for b in cluster.live_broker_ids if b not in leaders
            )
            busy_sid = 0
            cluster.produce(
                [_chunk(11, busy_sid, 88, 0, "pre")], producer_id=88
            )

            kill_node(cluster, victim)
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            assert report.reassignments == {}
            assert report.chunks_recovered == 0
            assert report.lanes == []
            # The cluster keeps serving with one fewer backup target.
            cluster.produce(
                [_chunk(11, busy_sid, 88, 1, "post")], producer_id=88
            )
            values = _fetch_all_values(cluster, 11, 3)
            assert b"pre" in values and b"post" in values


def test_double_kill_exhausting_replicas_fails_typed_never_silent():
    """R=3 on four nodes survives exactly one loss. The second kill
    cannot be recovered (not enough backup targets left) — the plane
    must say so with a typed error in the report, and producers must get
    typed refusals, not hangs or silent loss."""
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(12, 4)
            for sid in range(4):
                cluster.produce(
                    [_chunk(12, sid, 90 + sid, 0, f"d-{sid}")],
                    producer_id=90 + sid,
                )

            first = cluster.leader_of(12, 0)
            kill_node(cluster, first)
            report1 = plane.wait_recovered(first, timeout=15.0)
            assert report1 is not None and report1.error is None

            second = next(
                b for b in cluster.live_broker_ids if b != first
            )
            kill_node(cluster, second)
            report2 = plane.wait_recovered(second, timeout=15.0)
            assert report2 is not None
            assert isinstance(report2.error, ReplicationError)
            assert "too small" in str(report2.error)

            # Producing to anything the dead node led fails typed.
            dead_led = next(
                (12, sid)
                for sid in range(4)
                if cluster.leader_of(12, sid) == second
            )
            with pytest.raises((NotLeaderError, ReplicationError, RpcError)):
                cluster.produce(
                    [_chunk(12, dead_led[1], 99, 0, "refused")],
                    producer_id=99,
                )
