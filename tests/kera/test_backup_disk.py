"""Secondary-storage files: backups persist real decodable segments."""

import pytest

from repro.common.errors import StorageError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import InprocKeraCluster, KeraConfig, KeraProducer
from repro.kera.backup import KeraBackupCore


def make_cluster(tmp_path, flush_threshold=2 * KB):
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=64 * KB),
        replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=1),
        chunk_size=1 * KB,
        flush_threshold=flush_threshold,
        persist_dir=str(tmp_path / "backups"),
    )
    return InprocKeraCluster(config)


def ingest(cluster, count=500):
    cluster.create_stream(0, 4)
    producer = KeraProducer(cluster, producer_id=0)
    for i in range(count):
        producer.send(0, f"persisted-{i:05d}".encode())
    producer.flush()


def test_flushes_write_segment_files(tmp_path):
    cluster = make_cluster(tmp_path)
    ingest(cluster)
    assert cluster.flushes_scheduled > 0
    files = sorted((tmp_path / "backups").rglob("*.seg"))
    assert files, "no segment files written"
    # Files follow the broker/vlog/vseg naming scheme.
    assert all(f.name.startswith("b") and "_v" in f.name for f in files)


def test_persisted_segments_decode_to_original_records(tmp_path):
    cluster = make_cluster(tmp_path)
    ingest(cluster, count=400)
    # Force out everything still buffered.
    for backup in cluster.backups.values():
        for flush in backup.drain_flush():
            backup.persist(flush)
    recovered_values = set()
    for backup in cluster.backups.values():
        for src in list(cluster.brokers):
            for segment in backup.store.segments_for_broker(src):
                chunks = backup.read_persisted(segment)
                assert len(chunks) == len(segment.chunks)
                for chunk in chunks:
                    chunk.verify_payload()
                    for record in chunk.records():
                        recovered_values.add(record.value)
    expected = {f"persisted-{i:05d}".encode() for i in range(400)}
    assert recovered_values == expected


def test_incremental_flushes_append(tmp_path):
    from repro.persist import SEG_FILE_HEADER_SIZE

    cluster = make_cluster(tmp_path, flush_threshold=1 * KB)
    ingest(cluster, count=600)
    for backup in cluster.backups.values():
        for flush in backup.drain_flush():
            backup.persist(flush)
        backup.close_persistence()
    # On-disk frame length equals the in-memory segment length for every
    # segment: incremental flushes appended, never rewrote.
    for backup in cluster.backups.values():
        for src in list(cluster.brokers):
            for segment in backup.store.segments_for_broker(src):
                path = backup._segment_path(segment)
                expected = SEG_FILE_HEADER_SIZE + segment.bytes_held
                assert path.stat().st_size == expected


def test_segment_files_live_in_epoch_directory(tmp_path):
    cluster = make_cluster(tmp_path)
    ingest(cluster)
    files = sorted((tmp_path / "backups").rglob("*.seg"))
    assert files
    # First incarnation: every file sits in a node's epoch-0001, with an
    # index sidecar alongside.
    for path in files:
        assert path.parent.name == "epoch-0001"
        assert path.with_suffix(".idx").exists()


def test_disk_requires_materialized_segments(tmp_path):
    with pytest.raises(StorageError):
        KeraBackupCore(node_id=0, materialize=False, disk_dir=tmp_path / "x")


def test_read_without_disk_rejected():
    core = KeraBackupCore(node_id=0, materialize=True)
    from repro.replication.backup_store import ReplicatedSegment

    segment = ReplicatedSegment(
        src_broker=0, vlog_id=0, vseg_id=0, capacity=1024
    )
    with pytest.raises(StorageError):
        core.read_persisted(segment)
