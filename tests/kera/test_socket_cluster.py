"""SocketKeraCluster: the replication plane over real localhost TCP.

The no-loss/no-duplication harness of the threaded and process clusters,
now with every backup core in a worker process reachable only through a
framed TCP connection — plus the socket-only observables (connection
accounting) and the durable tier running inside the socket workers.
"""

from pathlib import Path

from repro.common.units import KB, MB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, KeraConsumer
from repro.kera.socket_cluster import SocketKeraCluster
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record

from tests.runtime.test_threaded_cluster import run_producers


def make_cluster(r=3, num_brokers=3, *, pipeline_depth=2, **kwargs):
    config = KeraConfig(
        num_brokers=num_brokers,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=r,
            vlogs_per_broker=2,
            pipeline_depth=pipeline_depth,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=1 * KB,
        **kwargs.pop("config_kwargs", {}),
    )
    kwargs.setdefault("ack_timeout", 30.0)
    return SocketKeraCluster(config, **kwargs)


def test_concurrent_producers_no_loss_no_duplication():
    num_threads, records_each, streamlets = 3, 100, 2
    with make_cluster() as cluster:
        cluster.create_stream(0, streamlets)
        acked, errors = run_producers(cluster, num_threads, records_each, streamlets)
        assert errors == []
        assert acked == [records_each] * num_threads

        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        values = [r.value for r in consumer.drain()]
        assert len(values) == num_threads * records_each
        assert len(set(values)) == len(values)


def test_backup_workers_behind_sockets_hold_all_copies():
    """Everything acked crossed TCP to R-1 socket workers; the stats RPC
    reaches through the same framed connection."""
    with make_cluster() as cluster:
        assert cluster.transport.connection_count() == len(cluster.system.node_ids)
        cluster.create_stream(0, 2)
        acked, errors = run_producers(cluster, 3, 80, 2)
        assert errors == []
        chunks = sum(b.chunks_ingested for b in cluster.brokers.values())
        backup_chunks = sum(
            cluster.backup_stats(node)["chunks_received"]
            for node in cluster.system.node_ids
        )
        assert backup_chunks == 2 * chunks  # R = 3
        # Parent-side backup cores see no traffic in socket mode.
        assert all(b.store.chunks_received == 0 for b in cluster.backups.values())
        assert all(b.pending_requests() == 0 for b in cluster.brokers.values())


def test_retransmission_acks_and_deduplicates():
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


def test_shutdown_under_load_drains_cleanly():
    """Shutdown right after the last ack: shippers drain their in-flight
    socket batches, every ack applies exactly once."""
    cluster = make_cluster(pipeline_depth=4)
    try:
        cluster.create_stream(0, 2)
        acked, errors = run_producers(cluster, 3, 60, 2, flush_every=10)
        assert errors == []
        assert acked == [60] * 3
        chunks = sum(b.chunks_ingested for b in cluster.brokers.values())
        backup_chunks = sum(
            cluster.backup_stats(node)["chunks_received"]
            for node in cluster.system.node_ids
        )
        assert backup_chunks == 2 * chunks
    finally:
        cluster.shutdown()
    for node in cluster.system.node_ids:
        shipper = cluster.shipper(node)
        assert not shipper.is_alive()
        assert shipper.error is None
        assert shipper.in_flight_batches() == 0
    assert all(b.pending_chunks() == 0 for b in cluster.brokers.values())
    assert cluster.transport.connection_count() == 0


def test_durable_tier_runs_inside_socket_workers(tmp_path):
    """With a persist dir the socket workers write real segment files;
    the child's close hook drains its flusher before exit, so the files
    are on disk once shutdown returns."""
    root = tmp_path / "backups"
    with make_cluster(
        config_kwargs={"persist_dir": str(root), "flush_threshold": 8 * KB}
    ) as cluster:
        cluster.create_stream(0, 2)
        acked, errors = run_producers(cluster, 2, 60, 2)
        assert errors == []
        assert acked == [60] * 2
    seg_files = list(Path(root).rglob("*.seg"))
    assert seg_files, "socket workers wrote no durable segment files"
    assert all(path.stat().st_size > 0 for path in seg_files)
