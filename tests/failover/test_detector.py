"""Failure detector: verdict delivery, leases, transport liveness.

Most of these run against a stub cluster so the lease machinery is
exercised without real transports; the heartbeat-path test at the end
uses a real threaded cluster with a fenced broker (pings refused, no
transport-level death for the detector to lean on).
"""

import threading
import time

from repro.common.errors import RpcError
from repro.failover import BrokerDown, FailureDetector
from repro.kera import KeraConfig, ThreadedKeraCluster


class _StubTransport:
    """Acks every ping unless a node is in ``refuse``."""

    def __init__(self):
        self.liveness_listener = None
        self.refuse = set()

    def call_async(self, src, dst, service, method, request, nbytes, *, on_done):
        assert method == "ping"
        if dst in self.refuse:
            on_done(None, RpcError(f"broker {dst} is fenced"))
        else:
            on_done(dst, None)


class _StubCluster:
    def __init__(self, nodes=(0, 1, 2)):
        self.transport = _StubTransport()
        self.live_broker_ids = list(nodes)


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


def test_heartbeat_detects_fenced_broker_on_threaded_cluster():
    """No transport-level death to lean on: the broker service is merely
    wedged (fenced), so only the lease expiry can call it dead."""
    with ThreadedKeraCluster(KeraConfig(num_brokers=3)) as cluster:
        down = threading.Event()
        verdicts = []

        def on_down(verdict):
            verdicts.append(verdict)
            down.set()

        detector = FailureDetector(
            cluster, heartbeat_interval=0.02, lease_timeout=0.2, on_down=on_down
        )
        detector.start()
        try:
            time.sleep(0.1)  # healthy pings first
            assert detector.verdicts() == []
            cluster._broker_services[1].fence()
            assert down.wait(10.0)
        finally:
            detector.stop()
        assert verdicts[0].node_id == 1
        assert verdicts[0].source == "heartbeat"
