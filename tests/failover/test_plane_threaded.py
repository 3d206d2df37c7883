"""Failover plane on the threaded driver: fence, recover, re-route.

The threaded driver has no worker processes to SIGKILL, so node death is
injected by fencing + an explicit detector verdict (exactly what
``chaos.kill_node`` does there); everything downstream — deferred
routing, parallel lanes, replay-through-produce, typed refusals — is the
same machinery the process/socket chaos tests exercise under a real
``SIGKILL``.
"""

import threading

from repro.common.errors import NotLeaderError, RecoveryError
from repro.common.units import KB
from repro.failover import FailoverPlane
from repro.failover.chaos import kill_node, run_chaos
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, ThreadedKeraCluster
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record, encode_records


def _config(num_brokers=4):
    return KeraConfig(
        num_brokers=num_brokers,
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


def _record_lane_launches(monkeypatch):
    """Log every recovery-lane thread's start and join, in call order.

    Lane *timings* cannot prove parallelism on a small machine (4 ms
    lanes on 2 vCPUs need not overlap); the launch order can: lanes run
    in parallel iff more than one is started before any is joined.
    ``benchmarks/bench_failover.py`` measures the timed overlap."""
    events = []
    real_start, real_join = threading.Thread.start, threading.Thread.join

    def start(thread):
        if thread.name.startswith("recovery-"):
            events.append(("start", thread.name))
        real_start(thread)

    def join(thread, timeout=None):
        if thread.name.startswith("recovery-"):
            events.append(("join", thread.name))
        real_join(thread, timeout)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(threading.Thread, "join", join)
    return events


def test_failover_under_load_zero_acked_loss(monkeypatch):
    launches = _record_lane_launches(monkeypatch)
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(
            cluster, heartbeat_interval=0.05, lease_timeout=1.0
        ) as plane:
            result = run_chaos(
                cluster,
                plane,
                producers=8,
                warmup_seconds=0.2,
                post_seconds=0.2,
            )
        report = result.report
        assert report is not None, "recovery never completed"
        assert report.error is None, f"recovery failed: {report.error!r}"
        assert result.acked > 0
        assert result.lost == [], f"acked records lost: {result.lost[:10]}"
        assert result.duplicated == []
        assert result.producer_errors == []
        # Streamlets the dead broker led are all re-routed to survivors.
        for (stream, sid), target in report.reassignments.items():
            assert target != result.victim
            assert cluster.leader_of(stream, sid) == target
        # Read lanes ran in parallel: several launched before the first join.
        first_join = launches.index(next(e for e in launches if e[0] == "join"))
        started_together = [name for op, name in launches[:first_join] if op == "start"]
        assert len(started_together) > 1, launches
        assert all(name.startswith("recovery-read-") for name in started_together)
        assert report.recovery_seconds < 10.0


def test_inflight_produce_to_dead_broker_fails_typed_never_hangs():
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(3, 4)
            victim = cluster.leader_of(3, 0)
            # Seed a little data so recovery has something to replay.
            cluster.produce([_chunk(3, 0, 50, 0, "seed")], producer_id=50)

            errors = []
            done = threading.Event()

            def on_complete(response, error):
                errors.append(error)
                done.set()

            # Fence first so the submit lands on a dead broker, then let
            # the plane recover it.
            cluster.fence_node(victim)
            cluster.submit_produce(
                victim, [_chunk(3, 0, 51, 0, "orphan")], 51, on_complete
            )
            assert done.wait(5.0), "produce against dead broker hung"
            assert isinstance(errors[0], NotLeaderError)
            # While routing is deferred the leader is still unknown.
            plane.detector.report_dead(victim, "test kill", source="report")
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            assert cluster.leader_of(3, 0) != victim


def test_fenced_broker_refuses_with_new_leader_after_commit():
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(4, 4)
            victim = cluster.leader_of(4, 0)
            cluster.produce([_chunk(4, 0, 60, 0, "pre")], producer_id=60)
            kill_node(cluster, victim)
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            new_leader = cluster.leader_of(4, 0)
            # A stale client that still routes to the fenced broker gets
            # the committed leader in the typed refusal.
            errors = []
            done = threading.Event()

            def on_complete(response, error):
                errors.append(error)
                done.set()

            cluster.submit_produce(
                victim, [_chunk(4, 0, 60, 1, "stale-route")], 60, on_complete
            )
            assert done.wait(5.0)
            assert isinstance(errors[0], NotLeaderError)
            assert errors[0].leader == new_leader


def test_retry_after_recovery_is_deduplicated():
    """An acked-but-unconfirmed chunk retried after failover must be
    absorbed by the broker's exactly-once check, not duplicated."""
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(5, 2)
            victim = cluster.leader_of(5, 0)
            chunk = _chunk(5, 0, 70, 0, "exactly-once")
            cluster.produce([chunk], producer_id=70)
            kill_node(cluster, victim)
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            assert report.chunks_recovered >= 1
            # The client never saw the ack land (say) — it retries the
            # same chunk against the new leader.
            (response,) = cluster.produce([chunk], producer_id=70)
            assert [a.duplicate for a in response.assignments] == [True]


def test_recovery_report_counts_match_replay():
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            cluster.create_stream(6, 4)
            victim = cluster.leader_of(6, 0)
            sids = [
                sid for sid in range(4) if cluster.leader_of(6, sid) == victim
            ]
            n = 0
            for sid in sids:
                for seq in range(5):
                    cluster.produce(
                        [_chunk(6, sid, 80 + sid, seq, f"r{sid}-{seq}")],
                        producer_id=80 + sid,
                    )
                    n += 1
            kill_node(cluster, victim)
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            assert report.chunks_recovered == n
            assert report.records_recovered == n
            assert report.vsegs_merged >= 1
            read_lanes = [ln for ln in report.lanes if ln.phase == "read"]
            replay_lanes = [ln for ln in report.lanes if ln.phase == "replay"]
            assert read_lanes and replay_lanes
            assert sum(ln.chunks for ln in replay_lanes) == n
            for lane in report.lanes:
                assert lane.finished >= lane.started > 0.0


def test_replay_lane_outliving_timeout_refuses_to_commit(monkeypatch):
    """A replay lane that is still running when ``replay_timeout``
    expires must fail recovery typed and leave routing alone: flipping
    the catalog then would send retries ahead of the prefix the lane is
    still replaying."""
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(
            cluster, heartbeat_interval=0.05, replay_timeout=0.2
        ) as plane:
            cluster.create_stream(13, 4)
            victim = cluster.leader_of(13, 0)
            cluster.produce([_chunk(13, 0, 55, 0, "seed")], producer_id=55)
            # Stall every survivor's append: the replay produce hangs.
            release = threading.Event()
            for node, core in cluster.brokers.items():
                if node == victim:
                    continue

                def stalled(request, real=core.handle_produce):
                    release.wait(10.0)
                    return real(request)

                monkeypatch.setattr(core, "handle_produce", stalled)
            try:
                kill_node(cluster, victim)
                report = plane.wait_recovered(victim, timeout=15.0)
                assert report is not None
                assert isinstance(report.error, RecoveryError)
                assert "still running" in str(report.error)
                assert cluster.leader_of(13, 0) == victim  # never flipped
                stuck = [ln for ln in report.lanes if ln.phase == "replay"]
                assert stuck and all(ln.finished == 0.0 for ln in stuck)
            finally:
                release.set()


def test_replicate_error_path_claims_node_and_recovers():
    """Detection driven purely by a survivor's replicate failure: no
    explicit report, no heartbeat expiry needed."""
    with ThreadedKeraCluster(_config()) as cluster:
        with FailoverPlane(
            cluster, heartbeat_interval=5.0, lease_timeout=60.0
        ) as plane:
            cluster.create_stream(8, 4)
            victim = cluster.leader_of(8, 0)
            survivor = next(
                b for b in cluster.live_broker_ids if b != victim
            )
            s_sid = next(
                sid for sid in range(4) if cluster.leader_of(8, sid) == survivor
            )
            # Mark the victim failed without telling the plane: the next
            # replicate from a survivor's shipper hits the refusal and
            # reports it (the shipper repairs instead of dying).
            with cluster._failed_lock:
                cluster._failed.add(victim)
            cluster.produce(
                [_chunk(8, s_sid, 90, 0, "trigger")], producer_id=90
            )
            report = plane.wait_recovered(victim, timeout=15.0)
            assert report is not None and report.error is None
            assert report.verdict.source == "replicate-error"
            assert cluster.shipper(survivor).error is None
            # The survivor's plane-repaired copies keep serving produce.
            cluster.produce(
                [_chunk(8, s_sid, 90, 1, "after")], producer_id=90
            )


def test_stop_is_idempotent_and_cluster_survives_plane_shutdown():
    with ThreadedKeraCluster(_config()) as cluster:
        plane = FailoverPlane(cluster, heartbeat_interval=0.05)
        plane.start()
        plane.stop()
        plane.stop()
        cluster.create_stream(9, 2)
        cluster.produce([_chunk(9, 0, 95, 0, "alive")], producer_id=95)
