"""Live-mode smoke: process-parallel replication plane vs threaded.

Real producer threads push real bytes through :class:`ProcessKeraCluster`
— every backup core in a worker process behind a shared-memory ring, the
pipelined shipper keeping several batches in flight — and the wall-clock
ack throughput is compared against :class:`ThreadedKeraCluster` on the
same workload and the same pipelined shipping configuration. It is a
smoke-level measurement of the process transport (correctness asserted:
every acked record is durable on both child backups), not a paper
figure; on a single-core runner the threaded driver usually wins because
the rings buy parallelism only when there are spare cores.
"""

import threading
import time

from repro.common.units import KB, MB, fmt_rate
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import (
    KeraConfig,
    KeraConsumer,
    KeraProducer,
    ThreadedKeraCluster,
)
from repro.kera.process import ProcessKeraCluster

PRODUCERS = 4
RECORDS_EACH = 1_500
STREAMLETS = 8


def _config():
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=4,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=4 * KB,
    )


def _produce(cluster, producer_id):
    producer = KeraProducer(cluster, producer_id=producer_id)
    for i in range(RECORDS_EACH):
        producer.send(0, f"p{producer_id}-{i:06d}".encode())
        if i % 250 == 249:
            producer.flush()
    producer.flush()


def _run(cluster):
    with cluster:
        cluster.create_stream(0, STREAMLETS)
        start = time.monotonic()
        threads = [
            threading.Thread(target=_produce, args=(cluster, p))
            for p in range(PRODUCERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start
        consumed = len(KeraConsumer(cluster, 0, [0]).drain())
        chunks = sum(b.chunks_ingested for b in cluster.brokers.values())
        backup_chunks = sum(
            cluster.backup_stats(node)["chunks_received"]
            for node in cluster.system.node_ids
        )
    return elapsed, consumed, chunks, backup_chunks


def test_live_process(benchmark):
    out = {}

    def sweep():
        out["threaded"] = _run(ThreadedKeraCluster(_config()))
        out["process"] = _run(ProcessKeraCluster(_config()))
        return out

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    total = PRODUCERS * RECORDS_EACH
    print(f"\n== live mode: {PRODUCERS} producers x {RECORDS_EACH} records, "
          f"R3 pipelined (depth 4, 2 MB window), {STREAMLETS} streamlets")
    for name in ("threaded", "process"):
        elapsed, consumed, chunks, backup_chunks = out[name]
        print(f"   {name:>9}: {fmt_rate(total / elapsed)} ack throughput, "
              f"{consumed} consumed, {backup_chunks} backup copies")
        # Correctness before speed: every acked record read back, and
        # every ingested chunk durable on both non-leader replicas.
        assert consumed == total
        assert backup_chunks == 2 * chunks
