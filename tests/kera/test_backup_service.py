"""One BackupService, reached only through the ``"backup"`` binding.

Two regressions the operator surface had while it existed twice (direct
core calls in ``kera/live.py``, RPCs in ``kera/process.py``):

* on the threaded driver, ``backup_drop_broker`` / ``backup_recovery_chunks``
  / ``backup_sync_flush`` touched the backup core from the *caller's*
  thread while that node's backup worker could be inside
  ``handle_replicate`` — ``BackupStore._segments`` has no lock;
* on the process/socket drivers, ``backup_load_disk(parallel=…)`` dropped
  ``parallel`` on the floor and the child loaded with its default.
"""

import multiprocessing
import threading

import pytest

from repro.common.errors import ConfigError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import (
    InprocKeraCluster,
    KeraBackupCore,
    KeraConfig,
    KeraProducer,
    SocketKeraCluster,
    ThreadedKeraCluster,
)
from repro.kera.recovery import restore_cluster_from_disk


def make_config(tmp_path=None):
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=16 * KB),
        replication=ReplicationConfig(
            replication_factor=2, vlogs_per_broker=1, fsync_policy="always"
        ),
        chunk_size=1 * KB,
        flush_threshold=1,
        persist_dir=None if tmp_path is None else str(tmp_path / "durable"),
    )


def ingest(cluster, count=120):
    cluster.create_stream(0, 3)
    with KeraProducer(cluster, producer_id=1) as producer:
        for i in range(count):
            producer.send(0, f"v-{i:04d}".encode().ljust(64, b"."))
        producer.flush()


def test_operator_calls_run_on_the_backup_worker_thread(tmp_path):
    """Deterministic form of the race: whatever thread asks, the core is
    only ever touched by the node's single ``backup@N#0`` worker — the
    same thread that runs ``handle_replicate``."""
    with ThreadedKeraCluster(make_config(tmp_path)) as cluster:
        ingest(cluster)
        node = cluster.system.node_ids[0]
        core = cluster.backups[node]
        seen = {}

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen[name] = threading.current_thread().name
                return real(*args, **kwargs)

            setattr(owner, name, wrapper)

        spy(core, "handle_replicate")
        spy(core, "recovery_chunks")
        spy(core, "drain_flush")
        spy(core.store, "drop_broker")

        with KeraProducer(cluster, producer_id=2) as producer:
            for i in range(30):
                producer.send(0, f"w-{i:04d}".encode())
            producer.flush()
        assert cluster.backup_recovery_chunks(node, 1) is not None
        assert cluster.backup_sync_flush(node) > 0
        assert cluster.backup_drop_broker(node, 1) >= 0

        worker = f"backup@{node}#0"
        assert seen == {
            "handle_replicate": worker,
            "recovery_chunks": worker,
            "drain_flush": worker,
            "drop_broker": worker,
        }
        assert threading.current_thread().name != worker


def test_backup_load_disk_parallel_reaches_the_worker(tmp_path, monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("observes the child through a patch inherited by fork")
    with SocketKeraCluster(make_config(tmp_path), ack_timeout=30.0) as cluster:
        ingest(cluster)
        for node in cluster.system.node_ids:
            assert cluster.backup_sync_flush(node) > 0

    real = KeraBackupCore.load_from_disk

    def recording(self, *, parallel=4):
        (tmp_path / f"parallel-{self.node_id}").write_text(str(parallel))
        return real(self, parallel=parallel)

    monkeypatch.setattr(KeraBackupCore, "load_from_disk", recording)
    with SocketKeraCluster(make_config(tmp_path), ack_timeout=30.0) as restarted:
        restarted.create_stream(0, 3)
        report = restore_cluster_from_disk(restarted, parallel=7)
        assert report.records_restored == 120
        for node in restarted.system.node_ids:
            # Written by the worker process, not by this one.
            assert (tmp_path / f"parallel-{node}").read_text() == "7"


@pytest.mark.parametrize("cluster_class", [InprocKeraCluster, ThreadedKeraCluster])
def test_backup_stats_and_unknown_op_on_live_object_drivers(cluster_class):
    with cluster_class(make_config()) as cluster:
        ingest(cluster)
        node = cluster.system.node_ids[0]
        stats = cluster.backup_stats(node)
        assert stats["chunks_received"] == cluster.backups[node].store.chunks_received > 0
        assert stats["flush_lag_bytes"] == 0 == cluster.flush_lag_bytes(node)
        assert cluster.wait_flush_idle(5.0)
        with pytest.raises(ConfigError):
            cluster.transport.call(-1, node, "backup", "no_such_op", None)
