"""Live migration under load: move a streamlet that is being written to.

The move machine (fence → gather → replay → commit) runs on the socket
driver while >= 8 pinned producers keep publishing; the acceptance bar
is the chaos bar — every acked record readable exactly once, in
per-producer order — plus: producers only ever see retryable errors,
writes after the commit land on the target, and a consumer positioned
before the move resumes past it. A second case kills the *target*
mid-replay: routing must not flip.
"""

import threading
import time
from collections import Counter

import pytest

from repro.common.errors import NotLeaderError
from repro.common.units import KB
from repro.failover import FailoverPlane
from repro.failover.chaos import RETRYABLE, _Producer, kill_node, read_back
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, migrate_streamlet
from repro.kera.messages import FetchPosition
from repro.kera.socket_cluster import SocketKeraCluster
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record, decode_records, encode_records

STREAM = 7
STREAMLETS = 4
PRODUCERS = 8


def _config():
    return KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3, vlogs_per_broker=2, pipeline_depth=4
        ),
        chunk_size=4 * KB,
    )


def _start_load(cluster):
    cluster.create_stream(STREAM, STREAMLETS)
    stop = threading.Event()
    workers = [
        _Producer(cluster, STREAM, pid % STREAMLETS, pid, stop, retry_timeout=20.0)
        for pid in range(PRODUCERS)
    ]
    for worker in workers:
        worker.start()
    return stop, workers


def _stop_and_audit(cluster, stop, workers):
    stop.set()
    for worker in workers:
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        # Only retryable errors ever reached a producer, and none ran
        # out its retry budget: anything else would have ended the
        # thread before `stop` and left `error` or a short ack list.
        assert worker.error is None, worker.error
    acked = {(w.producer_id, seq) for w in workers for seq, _ in w.acked}
    log = read_back(cluster, STREAM, STREAMLETS)
    seen = Counter(log)
    assert [key for key in sorted(acked) if not seen[key]] == [], "acked, lost"
    assert [key for key in seen if seen[key] > 1] == [], "duplicated"
    # A pinned producer writes one sub-partition: its records read back
    # in the order it sent them.
    for worker in workers:
        mine = [seq for pid, seq in log if pid == worker.producer_id]
        assert mine == sorted(mine), f"producer {worker.producer_id} reordered"
    return acked


def _values(response):
    return [
        record.value
        for entry in response.entries
        for view in entry.chunks
        for record in decode_records(view.payload_view, verify=True)
    ]


def test_migrating_a_streamlet_under_live_producers_loses_nothing():
    with SocketKeraCluster(_config()) as cluster:
        stop, workers = _start_load(cluster)
        time.sleep(0.3)
        moving = 0
        source = cluster.leader_of(STREAM, moving)
        target = next(b for b in cluster.live_broker_ids if b != source)

        # A consumer reads the head of the moving streamlet, then stops:
        # its position was issued by the old leader.
        head = cluster.fetch(
            [FetchPosition(STREAM, moving, 0)], consumer_id=1, max_chunks_per_entry=4
        )[0]
        seen = _values(head)
        assert seen
        position = head.entries[0].next_position

        report = migrate_streamlet(cluster, STREAM, moving, target)
        committed = time.monotonic()
        assert (report.source, report.target) == (source, target)
        assert report.records_moved > 0
        assert cluster.leader_of(STREAM, moving) == target

        time.sleep(0.3)  # the load keeps running after the commit
        acked = _stop_and_audit(cluster, stop, workers)

        for worker in workers:
            assert any(at > committed for _, at in worker.acked), (
                f"producer {worker.producer_id} never acked after the move"
            )
        # New writes land on the target; the source's copy froze at what
        # was moved.
        moved = cluster.brokers[source].registry.get(STREAM).streamlet(moving)
        landed = cluster.brokers[target].registry.get(STREAM).streamlet(moving)
        assert moved.record_count == report.records_moved
        assert landed.record_count > report.records_moved
        # A stale route to the old leader is refused with the new one.
        refused = []
        done = threading.Event()
        builder = ChunkBuilder(
            256, stream_id=STREAM, streamlet_id=moving, producer_id=99
        )
        builder.try_append_encoded(encode_records([Record(value=b"stale")]), 1)
        cluster.submit_produce(
            source,
            [builder.build(0)],
            99,
            lambda response, error: (refused.append(error), done.set()),
        )
        assert done.wait(5.0)
        assert isinstance(refused[0], NotLeaderError)
        assert refused[0].leader == target

        # The pre-move position resumes on the new leader, past the move:
        # no gap, no repeat, and it reaches records acked after the flip.
        while True:
            page = cluster.fetch([position], consumer_id=1, max_chunks_per_entry=64)[0]
            values = _values(page)
            if not values:
                break
            seen.extend(values)
            position = page.entries[0].next_position
        by_producer: dict[int, list[int]] = {}
        for value in seen:
            pid_s, _, seq_s = value.decode()[1:].partition("-")
            by_producer.setdefault(int(pid_s), []).append(int(seq_s))
        assert by_producer, "consumer read nothing"
        for pid, seqs in by_producer.items():
            mine = sorted(seq for p, seq in acked if p == pid)
            assert seqs[: len(mine)] == mine, f"producer {pid} gap/repeat across the move"


def test_target_killed_mid_replay_never_flips_routing(monkeypatch):
    with SocketKeraCluster(_config()) as cluster:
        with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
            stop, workers = _start_load(cluster)
            time.sleep(0.3)
            moving = 0
            source = cluster.leader_of(STREAM, moving)
            target = next(b for b in cluster.live_broker_ids if b != source)

            # SIGKILL the target's worker the moment the replay first
            # reaches it, and hold the replay until the plane has fenced
            # the node — the kill lands mid-replay by construction.
            submit = cluster.submit_produce
            killed = []

            def killing_submit(broker_id, chunks, producer_id, on_complete, **kw):
                is_replay = (
                    broker_id == target
                    and cluster.leader_of(chunks[0].stream_id, chunks[0].streamlet_id)
                    == source
                )
                if is_replay and not killed:
                    killed.append(kill_node(cluster, target))
                    deadline = time.monotonic() + 10.0
                    while not cluster.is_failed(target):
                        assert time.monotonic() < deadline, "kill never detected"
                        time.sleep(0.005)
                return submit(broker_id, chunks, producer_id, on_complete, **kw)

            monkeypatch.setattr(cluster, "submit_produce", killing_submit)
            with pytest.raises(RETRYABLE):
                migrate_streamlet(cluster, STREAM, moving, target)
            assert killed == ["sigkill"]
            assert cluster.leader_of(STREAM, moving) == source  # never flipped

            report = plane.wait_recovered(target, timeout=15.0)
            assert report is not None and report.error is None
            assert cluster.leader_of(STREAM, moving) == source
            # The abandoned move lifted its fence: the source serves the
            # streamlet again and the load runs on.
            resumed = time.monotonic()
            time.sleep(0.3)
            _stop_and_audit(cluster, stop, workers)
            on_moving = [w for w in workers if w.streamlet_id == moving]
            assert on_moving
            for worker in on_moving:
                assert any(at > resumed for _, at in worker.acked)
