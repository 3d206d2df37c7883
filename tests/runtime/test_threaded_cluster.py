"""ThreadedKeraCluster: real concurrency over the sans-IO cores.

N producer threads x M streamlets push real bytes — appending and
shipping R3 on their own threads — and consumers decode what comes
back: nothing lost, nothing duplicated, per-group order preserved, and
the broker-side counters agree with the producer-side counts.
"""

import threading

import pytest

from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import (
    KeraConfig,
    KeraConsumer,
    KeraProducer,
    ThreadedKeraCluster,
)


def make_cluster(r=3, vlogs=2, q=2, num_brokers=4, **kwargs):
    config = KeraConfig(
        num_brokers=num_brokers,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=q),
        replication=ReplicationConfig(replication_factor=r, vlogs_per_broker=vlogs),
        chunk_size=1 * KB,
    )
    return ThreadedKeraCluster(config, **kwargs)


def run_producers(cluster, num_threads, records_each, streamlets, flush_every=50):
    """Each thread is one producer pinned to one streamlet; returns the
    per-thread acked counts and any worker exceptions."""
    acked = [0] * num_threads
    errors = []

    def work(t):
        try:
            producer = KeraProducer(cluster, producer_id=t)
            streamlet = t % streamlets
            for i in range(records_each):
                producer.send(0, f"p{t:02d}-{i:06d}".encode(), streamlet_id=streamlet)
                if i % flush_every == flush_every - 1:
                    producer.flush()
            stats = producer.flush()
            acked[t] = stats.records_sent
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return acked, errors


def test_concurrent_producers_no_loss_no_duplication():
    num_threads, records_each, streamlets = 6, 400, 4
    with make_cluster() as cluster:
        cluster.create_stream(0, streamlets)
        acked, errors = run_producers(cluster, num_threads, records_each, streamlets)
        assert errors == []
        assert acked == [records_each] * num_threads

        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        records = consumer.drain()
        values = [r.value for r in records]
        # Every acked record recovered exactly once.
        assert len(values) == num_threads * records_each
        assert len(set(values)) == len(values)
        expected = {
            f"p{t:02d}-{i:06d}".encode()
            for t in range(num_threads)
            for i in range(records_each)
        }
        assert set(values) == expected


def test_per_group_order_preserved():
    """A producer's records within its (streamlet, entry) group come back
    in send order even with other producers appending concurrently."""
    num_threads, records_each, streamlets = 6, 300, 3
    with make_cluster() as cluster:
        cluster.create_stream(0, streamlets)
        _, errors = run_producers(cluster, num_threads, records_each, streamlets)
        assert errors == []
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        records = consumer.drain()
        # drain() preserves per-(streamlet, entry) durable order, and each
        # producer writes to exactly one group: its subsequence is sorted.
        for t in range(num_threads):
            prefix = f"p{t:02d}-".encode()
            mine = [r.value for r in records if r.value.startswith(prefix)]
            assert mine == sorted(mine)
            assert len(mine) == records_each


def test_broker_stats_match_producer_counts():
    num_threads, records_each, streamlets = 4, 250, 4
    with make_cluster() as cluster:
        cluster.create_stream(0, streamlets)
        acked, errors = run_producers(cluster, num_threads, records_each, streamlets)
        assert errors == []
        ingested = sum(b.records_ingested for b in cluster.brokers.values())
        assert ingested == sum(acked)
        # Everything acked is durable: nothing parked, R-1 backup copies.
        assert all(b.pending_requests() == 0 for b in cluster.brokers.values())
        chunks = sum(b.chunks_ingested for b in cluster.brokers.values())
        backup_chunks = sum(
            b.store.chunks_received for b in cluster.backups.values()
        )
        assert backup_chunks == 2 * chunks  # R = 3


def test_retransmission_acks_and_deduplicates():
    """A full-request retransmit (same chunks, new request id) must ack
    and leave exactly one copy behind."""
    from repro.wire.chunk import ChunkBuilder
    from repro.wire.record import Record

    with make_cluster() as cluster:
        cluster.create_stream(0, 1)
        builder = ChunkBuilder(1 * KB, stream_id=0, streamlet_id=0, producer_id=0)
        for i in range(5):
            assert builder.try_append(Record(value=f"r{i}".encode()))
        chunk = builder.build(chunk_seq=0)

        first = cluster.produce([chunk], producer_id=0)
        assert not first[0].assignments[0].duplicate
        second = cluster.produce([chunk], producer_id=0)
        assert second[0].assignments[0].duplicate

        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        values = [r.value for r in consumer.drain()]
        assert values == [f"r{i}".encode() for i in range(5)]
        broker = cluster.brokers[cluster.leader_of(0, 0)]
        assert broker.duplicates_dropped == 1


def test_queue_depth_one_still_completes():
    """Tiny queues exercise backpressure without deadlock: producers
    block sending on their own threads; acks never pump, so the one
    backup worker always drains its queue."""
    with make_cluster(queue_depth=1) as cluster:
        cluster.create_stream(0, 2)
        acked, errors = run_producers(cluster, 4, 120, 2, flush_every=20)
        assert errors == []
        assert acked == [120] * 4
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        assert len(consumer.drain()) == 480


def test_shipper_threads_run_per_broker():
    with make_cluster() as cluster:
        for node in cluster.system.node_ids:
            shipper = cluster.shipper(node)
            assert shipper.is_alive()
            assert shipper.error is None
    # Shutdown (via the context manager) stops them.
    for node in cluster.system.node_ids:
        assert not cluster.shipper(node).is_alive()


def test_fence_node_rejected_for_unknown_node():
    from repro.common.errors import StorageError

    with make_cluster() as cluster:
        with pytest.raises(StorageError):
            cluster.fence_node(99)
        assert cluster.live_broker_ids == sorted(cluster.brokers)
