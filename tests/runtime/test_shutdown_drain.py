"""Transport shutdown under load: in-flight work drains, acks apply once.

Satellite of the process-parallel replication plane: both concurrent
transports promise that async calls enqueued before ``shutdown()`` are
still executed and their callbacks fired exactly once — the property the
pipelined shipper's drain relies on.
"""

import threading
import time

from repro.common.units import KB, MB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.runtime.threaded import ThreadedTransport
from repro.kera import KeraConfig, KeraConsumer, ThreadedKeraCluster

from tests.runtime.test_threaded_cluster import run_producers


class _Slow:
    """Handler slow enough that shutdown always lands mid-queue."""

    def __init__(self):
        self.lock = threading.Lock()
        self.served = []

    def handle(self, method, request):
        time.sleep(0.002)
        with self.lock:
            self.served.append(request)
        return request


def test_threaded_transport_drains_async_calls_on_shutdown():
    transport = ThreadedTransport(queue_depth=256)
    service = _Slow()
    transport.register(0, "svc", service)
    transport.start()
    lock = threading.Lock()
    results = []

    def on_done(response, error, _l=lock):
        with _l:
            results.append((response, error))

    for i in range(100):
        transport.call_async(0, 0, "svc", "m", i, on_done=on_done)
    transport.shutdown()
    # Every call executed and called back exactly once, in queue order.
    assert service.served == list(range(100))
    assert [r for r, e in results] == list(range(100))
    assert all(e is None for _, e in results)


def test_pipelined_cluster_no_loss_with_window_and_linger():
    """The full pipelined-shipper configuration — depth and credit
    window — under concurrent producers, then shutdown: nothing lost,
    nothing duplicated, every ack applied exactly once."""
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=4,
            ship_window_bytes=1 * MB,
        ),
        chunk_size=1 * KB,
    )
    num_threads, records_each, streamlets = 6, 300, 4
    cluster = ThreadedKeraCluster(config)
    try:
        cluster.create_stream(0, streamlets)
        acked, errors = run_producers(cluster, num_threads, records_each, streamlets)
        assert errors == []
        assert acked == [records_each] * num_threads

        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        values = [r.value for r in consumer.drain()]
        assert len(values) == num_threads * records_each
        assert len(set(values)) == len(values)

        chunks = sum(b.chunks_ingested for b in cluster.brokers.values())
        backup_chunks = sum(b.store.chunks_received for b in cluster.backups.values())
        assert backup_chunks == 2 * chunks  # R = 3, acked once each
    finally:
        cluster.shutdown()
    for node in cluster.system.node_ids:
        shipper = cluster.shipper(node)
        assert not shipper.is_alive()
        assert shipper.error is None
        assert shipper.in_flight_batches() == 0
    assert all(b.pending_chunks() == 0 for b in cluster.brokers.values())
