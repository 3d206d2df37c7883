"""Live-mode throughput: threaded concurrent cluster vs synchronous inproc.

Unlike ``bench_figures`` this bench runs no simulation: real
producer threads push real bytes through :class:`ThreadedKeraCluster`'s
worker-thread brokers (replication factor 3) and the wall-clock ack
throughput is compared against the single-threaded synchronous driver on
the same workload. It is a smoke-level measurement of the concurrent
runtime, not a paper figure.
"""

import threading
import time

from repro.common.metrics import ThroughputMeter
from repro.common.units import KB, fmt_rate
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import (
    InprocKeraCluster,
    KeraConfig,
    KeraConsumer,
    KeraProducer,
    ThreadedKeraCluster,
)

PRODUCERS = 4
RECORDS_EACH = 3_000
STREAMLETS = 8


def _config():
    return KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
        chunk_size=4 * KB,
    )


def _produce(cluster, producer_id, meter):
    producer = KeraProducer(cluster, producer_id=producer_id)
    for i in range(RECORDS_EACH):
        producer.send(0, f"p{producer_id}-{i:06d}".encode())
        if i % 250 == 249:
            producer.flush()
            meter.add(250, time.monotonic())
    producer.flush()


def _run_threaded():
    meter = ThroughputMeter(thread_safe=True)
    with ThreadedKeraCluster(_config()) as cluster:
        cluster.create_stream(0, STREAMLETS)
        start = time.monotonic()
        threads = [
            threading.Thread(target=_produce, args=(cluster, p, meter))
            for p in range(PRODUCERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start
        consumed = len(KeraConsumer(cluster, 0, [0]).drain())
    return elapsed, consumed


def _run_inproc():
    meter = ThroughputMeter()
    cluster = InprocKeraCluster(_config())
    cluster.create_stream(0, STREAMLETS)
    start = time.monotonic()
    for p in range(PRODUCERS):
        _produce(cluster, p, meter)
    elapsed = time.monotonic() - start
    consumed = len(KeraConsumer(cluster, 0, [0]).drain())
    return elapsed, consumed


def test_live_threaded(benchmark):
    out = {}

    def sweep():
        out["threaded"] = _run_threaded()
        out["inproc"] = _run_inproc()
        return out

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    total = PRODUCERS * RECORDS_EACH
    print(f"\n== live mode: {PRODUCERS} producers x {RECORDS_EACH} records, "
          f"R3, {STREAMLETS} streamlets (wall clock)")
    for name in ("inproc", "threaded"):
        elapsed, consumed = out[name]
        print(f"   {name:>9}: {fmt_rate(total / elapsed)} ack throughput, "
              f"{consumed} consumed")
        # Correctness before speed: every acked record read back.
        assert consumed == total
