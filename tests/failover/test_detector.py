"""Failure detector: verdict delivery, leases, transport liveness.

Most of these run against a stub cluster so the lease machinery is
exercised without real transports: the stub reports per-node replicate
ack counts and owed calls the way ``LiveKeraCluster.backup_acks`` does,
and answers backup pings. The heartbeat-path test at the end uses a real
threaded cluster with a wedged backup (its handler never returns, no
transport-level death for the detector to lean on).
"""

import threading
import time

from repro.common.errors import RpcError
from repro.failover import BrokerDown, FailureDetector
from repro.kera import KeraConfig, ThreadedKeraCluster


class _StubTransport:
    """Answers every backup ping unless a node is in ``refuse``; a node
    in ``full`` has a full request queue, so a submit there blocks."""

    def __init__(self):
        self.liveness_listener = None
        self.refuse = set()
        self.full = set()
        self.unblock = threading.Event()
        self.pings = []

    def call_async(self, src, dst, service, method, request, nbytes, *, on_done):
        assert (service, method) == ("backup", "ping")
        self.pings.append(dst)
        if dst in self.full:
            self.unblock.wait(5.0)  # what a put on a full queue does
        if dst in self.refuse:
            on_done(None, RpcError(f"backup {dst} refused"))
        else:
            on_done(dst, None)


class _StubCluster:
    def __init__(self, nodes=(0, 1, 2)):
        self.transport = _StubTransport()
        self.live_broker_ids = list(nodes)
        #: Replicate acks per backup node; nodes in ``busy`` have their
        #: count bumped on every read (traffic that keeps acking).
        self.acks = {}
        self.busy = set()
        #: Nodes with replicate calls outstanding.
        self.owing = set()
        self.ticks = 0

    def backup_acks(self):
        self.ticks += 1
        for node in self.busy:
            self.acks[node] = self.acks.get(node, 0) + 1
        return dict(self.acks), set(self.owing)


def test_report_dead_first_verdict_wins():
    detector = FailureDetector(_StubCluster())
    assert detector.report_dead(1, "first", source="report")
    assert not detector.report_dead(1, "second", source="heartbeat")
    assert detector.is_down(1)
    assert not detector.is_down(0)
    (verdict,) = detector.verdicts()
    assert verdict == BrokerDown(node_id=1, reason="first", source="report")


def test_on_down_delivered_exactly_once():
    seen = []
    done = threading.Event()

    def on_down(verdict):
        seen.append(verdict)
        done.set()

    detector = FailureDetector(
        _StubCluster(), heartbeat_interval=0.01, on_down=on_down
    )
    detector.start()
    try:
        detector.report_dead(2, "kill", source="report")
        detector.report_dead(2, "kill again", source="report")
        assert done.wait(5.0)
        time.sleep(0.05)  # a second delivery would land in this window
    finally:
        detector.stop()
    assert [v.node_id for v in seen] == [2]
    assert seen[0].source == "report"


def test_transport_liveness_listener_attaches_and_detaches():
    cluster = _StubCluster()
    detector = FailureDetector(cluster, heartbeat_interval=0.01)
    detector.start()
    try:
        assert cluster.transport.liveness_listener is not None
        # Node-level failure model: any dead worker kills the node.
        cluster.transport.liveness_listener(1, "backup", "process-exit", "reaped")
        assert detector.is_down(1)
        (verdict,) = detector.verdicts()
        assert verdict.source == "process-exit"
    finally:
        detector.stop()
    assert cluster.transport.liveness_listener is None


def test_healthy_pings_keep_leases_alive():
    cluster = _StubCluster()
    detector = FailureDetector(
        cluster, heartbeat_interval=0.01, lease_timeout=0.05
    )
    detector.start()
    try:
        time.sleep(0.3)  # many lease periods: acks must keep renewing
        assert detector.verdicts() == []
    finally:
        detector.stop()


def test_refused_pings_expire_the_lease():
    cluster = _StubCluster()
    cluster.transport.refuse.add(2)
    seen = threading.Event()
    verdicts = []

    def on_down(verdict):
        verdicts.append(verdict)
        seen.set()

    detector = FailureDetector(
        cluster, heartbeat_interval=0.01, lease_timeout=0.05, on_down=on_down
    )
    detector.start()
    try:
        assert seen.wait(5.0)
    finally:
        detector.stop()
    assert verdicts[0].node_id == 2
    assert verdicts[0].source == "heartbeat"
    assert not detector.is_down(0)
    assert not detector.is_down(1)


def test_slow_recovery_does_not_expire_healthy_leases():
    """``on_down`` runs on the detector thread; while it does, no ping
    goes out. A recovery longer than the lease used to come back to find
    every survivor's lease run down and declare the whole cluster dead
    (seen as a chaos run whose survivors all "missed" their heartbeat
    on a busy machine)."""
    cluster = _StubCluster()
    verdicts = []
    recovered = threading.Event()

    def on_down(verdict):
        verdicts.append(verdict)
        if verdict.node_id == 2:
            time.sleep(1.2)  # six leases long
            recovered.set()

    # A lease wide enough that a scheduling stall on a loaded box (this
    # runs right after the chaos suites) is not itself a missed heartbeat.
    detector = FailureDetector(
        cluster, heartbeat_interval=0.01, lease_timeout=0.2, on_down=on_down
    )
    detector.start()
    try:
        time.sleep(0.05)  # healthy pings first
        detector.report_dead(2, "kill", source="report")
        assert recovered.wait(5.0)
        time.sleep(0.1)  # heartbeats resume; a false verdict would land here
    finally:
        detector.stop()
    assert [v.node_id for v in verdicts] == [2]
    assert not detector.is_down(0)
    assert not detector.is_down(1)


def test_moving_ack_count_renews_without_a_ping():
    cluster = _StubCluster()
    cluster.busy.add(1)  # node 1's backup keeps acking replicate calls
    cluster.owing.add(1)
    cluster.transport.refuse.add(1)  # a ping would not renew it
    detector = FailureDetector(cluster, heartbeat_interval=0.01, lease_timeout=0.05)
    detector.start()
    try:
        time.sleep(0.3)  # many lease periods
        assert detector.verdicts() == []
    finally:
        detector.stop()
    pings = cluster.transport.pings
    assert 1 not in pings
    # An idle node is pinged at most once per tick.
    assert 0 < pings.count(0) <= cluster.ticks


def test_blocked_node_neither_stalls_the_detector_nor_the_others():
    """A wedged backup with replicate calls outstanding may have a full
    queue: a ping submit there would block the detector thread for the
    transport's call timeout, and every other lease would run down
    behind it. The detector never pings a node that owes acks; owing
    them for a whole lease is the missed heartbeat."""
    cluster = _StubCluster()
    cluster.owing.add(2)
    cluster.transport.full.add(2)
    interval, lease = 0.05, 0.5
    reported = []
    detector = FailureDetector(cluster, heartbeat_interval=interval, lease_timeout=lease)
    report_dead = detector.report_dead

    def stamped(node_id, reason, source="report"):
        reported.append((node_id, source, time.monotonic()))
        return report_dead(node_id, reason, source)

    detector.report_dead = stamped
    began = time.monotonic()
    detector.start()
    try:
        time.sleep(lease + 0.5)
    finally:
        cluster.transport.unblock.set()
        detector.stop()
    assert 2 not in cluster.transport.pings
    assert [(n, src) for n, src, _ in reported] == [(2, "heartbeat")]
    assert reported[0][2] - began <= lease + 2 * interval
    # Node 0 was pinged every tick, none of them held up.
    assert cluster.transport.pings.count(0) >= (lease + 0.5) / interval / 2
    assert not detector.is_down(0) and not detector.is_down(1)


def test_heartbeat_detects_wedged_backup_on_threaded_cluster():
    """No transport-level death to lean on: node 1's backup handler is
    merely wedged, so only the lease expiry can call it dead. (A fenced
    broker no longer stops renewals, and need not: the plane fences on
    the verdict.)"""
    with ThreadedKeraCluster(KeraConfig(num_brokers=3)) as cluster:
        down = threading.Event()
        verdicts = []

        def on_down(verdict):
            verdicts.append(verdict)
            down.set()

        detector = FailureDetector(
            cluster, heartbeat_interval=0.02, lease_timeout=0.2, on_down=on_down
        )
        (service,) = [s for s in cluster._local_backups if s.core.node_id == 1]
        release = threading.Event()
        serve = service.handle

        def wedged(method, request):
            release.wait(10.0)
            return serve(method, request)

        detector.start()
        try:
            time.sleep(0.1)  # healthy pings first
            assert detector.verdicts() == []
            service.handle = wedged
            assert down.wait(10.0)
        finally:
            release.set()
            detector.stop()
        assert [(v.node_id, v.source) for v in verdicts] == [(1, "heartbeat")]
