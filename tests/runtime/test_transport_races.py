"""Regressions for the races analysis rule A001 surfaced.

Before the guarded-by pass, :class:`ThreadedTransport` lifecycle state
(``_started``/``_queues``/``_threads``) and the live cluster's failed-
node set were mutated without a lock. Two concrete consequences, pinned
here: concurrent ``start()`` calls could each observe ``_started ==
False`` and spawn duplicate workers, and a node fence raced the
shipper threads' reads of ``_failed``.
"""

import threading

import pytest

from repro.common.errors import NotLeaderError, ReplicationError, RpcError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, KeraProducer, ThreadedKeraCluster
from repro.runtime.threaded import ThreadedTransport


class _Echo:
    def handle(self, method, request):
        return (method, request)


def _racing_threads(n, fn):
    barrier = threading.Barrier(n)

    def go():
        barrier.wait()
        fn()

    threads = [threading.Thread(target=go) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_concurrent_start_spawns_exactly_one_worker_pool():
    transport = ThreadedTransport()
    transport.register(0, "svc", _Echo())
    transport.register(1, "svc", _Echo())
    try:
        _racing_threads(8, transport.start)
        # One worker per binding: a double-spawn would double this.
        assert sorted(t.name for t in transport._threads) == ["svc@0#0", "svc@1#0"]
        assert transport.call(-1, 0, "svc", "ping", 42) == ("ping", 42)
    finally:
        transport.shutdown()


def test_concurrent_shutdown_is_idempotent():
    transport = ThreadedTransport()
    transport.register(0, "svc", _Echo())
    transport.register(1, "svc", _Echo())
    transport.start()
    _racing_threads(6, transport.shutdown)
    assert all(not t.is_alive() for t in transport._threads)
    with pytest.raises(RpcError):
        transport.call(-1, 0, "svc", "ping", 1)


def test_register_after_start_rejected_under_contention():
    transport = ThreadedTransport()
    transport.register(0, "svc", _Echo())
    errors = []

    def try_register():
        try:
            transport.register(1, "late", _Echo())
        except RpcError as exc:
            errors.append(exc)

    try:
        transport.start()
        _racing_threads(4, try_register)
        assert len(errors) == 4
    finally:
        transport.shutdown()


def test_fence_node_concurrent_with_producers():
    """Fencing a node mid-traffic must neither hang nor corrupt: every
    producer either gets its ack or a typed error (a ReplicationError,
    or the fenced leader's NotLeaderError), and the failed set is
    consistent afterwards."""
    config = KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(replication_factor=2, vlogs_per_broker=1),
        chunk_size=1 * KB,
    )
    with ThreadedKeraCluster(config, ack_timeout=5.0) as cluster:
        cluster.create_stream(0, 3)
        stop = threading.Event()
        outcomes = []

        def produce(producer_id):
            producer = KeraProducer(cluster, producer_id=producer_id)
            sent = 0
            try:
                for i in range(200):
                    if stop.is_set() and i > 60:
                        break
                    producer.send(
                        0,
                        f"p{producer_id}-{i}".encode(),
                        streamlet_id=producer_id % 3,
                    )
                    if i % 20 == 19:
                        producer.flush()
                        sent += 20
                outcomes.append(("ok", sent))
            except (ReplicationError, NotLeaderError):
                outcomes.append(("failed", sent))

        threads = [threading.Thread(target=produce, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        assert cluster.fence_node(2)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)
        assert all(not t.is_alive() for t in threads)
        # Every producer thread reached a clean verdict.
        assert len(outcomes) == 3
        assert cluster.live_broker_ids == [0, 1]
