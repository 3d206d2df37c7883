"""Kill-and-restart from disk: no acked record may be lost.

The durability contract under test: once a produce has acked, its records
survive an abrupt cluster death — provided the fsync policy's guarantee
held at the kill point (``always``: every flush is synced before the ack
chain completes; ``bytes:N``: an explicit ``backup_sync_flush`` checkpoint
bounds the loss window to zero). A fresh incarnation pointed at the same
``persist_dir`` restores every record, in per-streamlet send order, via
:func:`repro.kera.recovery.restore_cluster_from_disk`.

Covered on both concurrent drivers: the threaded cluster dies via
``simulate_power_loss`` (no drain, no clean close), the process cluster
dies harder — its backup children are SIGKILLed mid-flight.
"""

import os
import signal
import time
from collections import defaultdict

import pytest

from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, KeraConsumer, KeraProducer
from repro.kera.process import ProcessKeraCluster
from repro.kera.recovery import restore_cluster_from_disk
from repro.kera.threaded import ThreadedKeraCluster

POLICIES = ["always", "bytes:2048"]
STREAMLETS = 4


def make_config(tmp_path, fsync_policy):
    return KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=8 * KB),
        replication=ReplicationConfig(
            replication_factor=3, vlogs_per_broker=1, fsync_policy=fsync_policy
        ),
        chunk_size=1 * KB,
        # Every replicate emits flush work: all acked bytes reach the
        # flusher before the ack, so "flusher idle" means "on disk".
        flush_threshold=1,
        persist_dir=str(tmp_path / "durable"),
    )


def produce_workload(cluster, count=400, flush_every=50):
    """Send ``count`` records across the streamlets; returns the expected
    per-streamlet value sequences (= ack order per sub-partition)."""
    expected = defaultdict(list)
    with KeraProducer(cluster, producer_id=1) as producer:
        for i in range(count):
            streamlet = i % STREAMLETS
            value = f"restart-{i:05d}".encode().ljust(100, b".")
            producer.send(0, value, streamlet_id=streamlet)
            expected[streamlet].append(value)
            if (i + 1) % flush_every == 0:
                producer.flush()
    return dict(expected)


def consume_by_streamlet(cluster):
    consumer = KeraConsumer(cluster, consumer_id=9, stream_ids=[0])
    got = defaultdict(list)
    while True:
        chunks = consumer.poll_views()
        if not chunks:
            return dict(got)
        for chunk in chunks:
            chunk.verify_payload()
            for record in chunk.records():
                got[chunk.streamlet_id].append(record.value)


@pytest.mark.parametrize("fsync_policy", POLICIES)
def test_threaded_power_loss_and_restart(tmp_path, fsync_policy):
    config = make_config(tmp_path, fsync_policy)
    cluster = ThreadedKeraCluster(config)
    try:
        cluster.create_stream(0, STREAMLETS)
        expected = produce_workload(cluster)
        assert cluster.wait_flush_idle(30.0)
        if fsync_policy != "always":
            # bytes:N leaves a tail below the threshold unsynced; the
            # checkpoint is the operator-visible way to pin it down.
            for node in cluster.system.node_ids:
                assert cluster.backup_sync_flush(node) > 0
    finally:
        cluster.simulate_power_loss()

    restarted = ThreadedKeraCluster(make_config(tmp_path, fsync_policy))
    try:
        restarted.create_stream(0, STREAMLETS)
        report = restore_cluster_from_disk(restarted)
        # Every node backs up some broker's segments (R=3 over 4 nodes).
        assert report.backups_loaded == 4
        assert report.brokers_restored == [0, 1, 2, 3]
        assert report.records_restored == sum(len(v) for v in expected.values())
        assert report.duplicates_dropped == 0  # replicas merged, not replayed twice
        assert consume_by_streamlet(restarted) == expected
        # The replay is durable under the new epoch: files exist again.
        assert sum(restarted.segments_on_disk(n) for n in restarted.system.node_ids) > 0
    finally:
        restarted.shutdown()

    # The consumed generation was retired: a third incarnation restores
    # from the replay's epoch alone, without double-loading the original.
    third = ThreadedKeraCluster(make_config(tmp_path, fsync_policy))
    try:
        third.create_stream(0, STREAMLETS)
        again = restore_cluster_from_disk(third)
        assert again.duplicates_dropped == 0
        assert consume_by_streamlet(third) == expected
    finally:
        third.shutdown()


def _await_flush_lag_zero(cluster, timeout=30.0):
    deadline = time.monotonic() + timeout
    nodes = list(cluster.system.node_ids)
    while time.monotonic() < deadline:
        if all(cluster.backup_stats(n)["flush_lag_bytes"] == 0 for n in nodes):
            return
        time.sleep(0.01)
    raise AssertionError("backup children never drained their flush queues")


def _sigkill_backup_children(cluster):
    """The process-mode power loss: SIGKILL every backup worker."""
    transport = cluster.transport
    pids = [transport.worker_pid(n, "backup") for n in cluster.system.node_ids]
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    # The transport notices each death and drops the link.
    deadline = time.monotonic() + 10.0
    while transport.connection_count() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert transport.connection_count() == 0
    return len(pids)


@pytest.mark.parametrize("fsync_policy", POLICIES)
def test_process_sigkill_and_restart(tmp_path, fsync_policy):
    config = make_config(tmp_path, fsync_policy)
    cluster = ProcessKeraCluster(config, ack_timeout=30.0)
    try:
        cluster.create_stream(0, STREAMLETS)
        expected = produce_workload(cluster, count=240)

        # The stats RPC surfaces the children's durable-tier gauges.
        stats = cluster.backup_stats(cluster.system.node_ids[0])
        assert {
            "flush_lag_bytes",
            "segments_on_disk",
            "spilled_segments",
            "bytes_in_memory",
        } <= stats.keys()

        if fsync_policy == "always":
            # Acked bytes were handed to the flusher before the ack, and
            # every executed flush fsyncs: an empty queue IS durability.
            _await_flush_lag_zero(cluster)
            assert all(
                cluster.backup_stats(n)["segments_on_disk"] > 0
                for n in cluster.system.node_ids
            )
        else:
            for node in cluster.system.node_ids:
                assert cluster.backup_sync_flush(node) > 0

        assert _sigkill_backup_children(cluster) == len(cluster.system.node_ids)
    finally:
        cluster.shutdown()

    restarted = ProcessKeraCluster(make_config(tmp_path, fsync_policy), ack_timeout=30.0)
    try:
        restarted.create_stream(0, STREAMLETS)
        report = restore_cluster_from_disk(restarted)
        assert report.backups_loaded == 4
        assert report.records_restored == sum(len(v) for v in expected.values())
        assert consume_by_streamlet(restarted) == expected
        # Restored data re-replicated into the children's new epoch.
        assert all(
            restarted.backup_stats(n)["segments_on_disk"] > 0
            for n in restarted.system.node_ids
        )
    finally:
        restarted.shutdown()
