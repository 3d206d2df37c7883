"""BufferPool rental discipline: no leaks on producer exception paths."""

import time

import pytest

from repro.common.errors import ReplicationError, WireFormatError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.wire.chunk import CHUNK_HEADER_SIZE, ChunkBuilder
from repro.wire.pool import BufferPool
from repro.kera import KeraConfig, KeraProducer
from tests.kera.drivers import CONCURRENT, DRIVERS


def make_cluster(driver="inproc"):
    config = KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=64 * KB),
        replication=ReplicationConfig(replication_factor=3),
        chunk_size=1 * KB,
    )
    return DRIVERS[driver](config)


def test_builder_init_failure_returns_buffer():
    pool = BufferPool(16)  # far too small for header + capacity
    with pytest.raises(WireFormatError):
        ChunkBuilder(1 * KB, stream_id=0, streamlet_id=0, producer_id=0, pool=pool)
    assert pool.rented == 0


def test_builder_close_idempotent():
    pool = BufferPool(CHUNK_HEADER_SIZE + 1 * KB)
    builder = ChunkBuilder(1 * KB, stream_id=0, streamlet_id=0, producer_id=0, pool=pool)
    assert pool.rented == 1
    builder.close()
    builder.close()
    assert pool.rented == 0


def test_producer_close_returns_all_buffers():
    with make_cluster() as cluster:
        cluster.create_stream(0, 3)
        producer = KeraProducer(cluster, producer_id=1)
        for i in range(50):
            producer.send(0, f"v{i}".encode())
        assert producer.pool.rented == 3  # one builder per streamlet
        producer.close()
        assert producer.pool.rented == 0


def test_failed_produce_leaks_nothing(driver="inproc"):
    """The regression this satellite exists for: a produce that raises
    mid-flush must not strand rented scratch buffers — close() on the
    error path returns every buffer and pool.rented drops to 0. And a
    ship failure means the same on every driver: the waiting produce
    fails at once with the typed error, and its batches are un-issued."""
    with make_cluster(driver) as cluster:
        cluster.create_stream(0, 2)
        producer = KeraProducer(cluster, producer_id=1)
        for i in range(20):
            producer.send(0, f"v{i}".encode())
        # Fail every backup, with no failover plane to repair around
        # them: replication to a failed node fails the produce.
        with cluster._failed_lock:
            cluster._failed.update(cluster.system.node_ids)
        started = time.monotonic()
        with pytest.raises(ReplicationError):
            producer.flush()
        assert time.monotonic() - started < 1.0
        # The unsent chunks were put back for a retry...
        assert producer._ready
        # ...and close on the error path still returns every buffer. Its
        # retry of the same chunks fails at once with the typed error: the
        # failed pump un-issued its batches, so the retry re-ships (and
        # fails again) instead of waiting out the ack timeout behind a
        # batch nobody will complete.
        started = time.monotonic()
        with pytest.raises(ReplicationError):
            producer.close()
        assert time.monotonic() - started < 1.0
        assert producer.pool.rented == 0
        # flush() raises on the first failed broker; let the others'
        # produces fail too (each is failed after its un-issue).
        deadline = time.monotonic() + 1.0
        while cluster.inflight_produce_count() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert cluster.inflight_produce_count() == 0
        for node, broker in cluster.brokers.items():
            assert not any(vlog.in_flight for vlog in broker.manager.vlogs)
            assert cluster.shipper(node).in_flight_batches() == 0
            assert cluster.shipper(node).flow.in_flight_bytes == 0
            assert cluster.shipper(node).error is None


@pytest.mark.parametrize("driver", CONCURRENT)
def test_failed_produce_on_every_other_driver(driver):
    test_failed_produce_leaks_nothing(driver)


def test_context_manager_returns_buffers_on_error():
    with make_cluster() as cluster:
        cluster.create_stream(0, 1)
        with pytest.raises(RuntimeError, match="boom"):
            with KeraProducer(cluster, producer_id=1) as producer:
                producer.send(0, b"value")
                raise RuntimeError("boom")
        # No flush was attempted on the error path; buffers still back.
        assert producer.pool.rented == 0
