"""Threaded live mode: concurrent producers over real worker threads.

Runs the same end-to-end byte path as the quickstart, but on
:class:`repro.kera.ThreadedKeraCluster`: several producer threads flush
concurrently, each appending and shipping its own produce (whoever finds
the broker's one ship loop free pumps it), and every node's backup
service executes on a worker thread behind a bounded request queue — the
configuration that exercises
the sans-IO cores under real contention. At the end every acked record is
read back and verified exactly once, and wall-clock throughput is
reported (measured with the thread-safe ThroughputMeter the producer
threads share).

Run:  python examples/threaded_live.py
"""

import threading
import time

from repro.common.metrics import ThroughputMeter
from repro.common.units import KB, fmt_rate
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, KeraConsumer, KeraProducer, ThreadedKeraCluster

PRODUCERS = 4
RECORDS_EACH = 2_000
STREAMLETS = 8


def main() -> None:
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
        chunk_size=4 * KB,
    )
    meter = ThroughputMeter(thread_safe=True)

    with ThreadedKeraCluster(config) as cluster:
        cluster.create_stream(stream_id=0, num_streamlets=STREAMLETS)

        def produce(producer_id: int) -> None:
            producer = KeraProducer(cluster, producer_id=producer_id)
            for i in range(RECORDS_EACH):
                producer.send(0, f"p{producer_id}-{i:06d}".encode())
                if i % 200 == 199:
                    producer.flush()
                    meter.add(200, time.monotonic() - start)
            producer.flush()

        start = time.monotonic()
        threads = [
            threading.Thread(target=produce, args=(p,), name=f"producer-{p}")
            for p in range(PRODUCERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start

        total = PRODUCERS * RECORDS_EACH
        print(f"{PRODUCERS} producer threads acked {total} records "
              f"in {elapsed:.2f}s ({fmt_rate(total / elapsed)})")

        for broker_id, broker in cluster.brokers.items():
            batches = broker.manager.total_batches()
            chunks = broker.manager.total_chunks_shipped()
            if chunks:
                print(f"broker {broker_id}: shipped {chunks} chunks in {batches} "
                      f"replication RPCs ({chunks / batches:.1f} chunks/RPC)")

        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        records = consumer.drain()
        values = {r.value for r in records}
        assert len(records) == total, (len(records), total)
        assert len(values) == total  # nothing duplicated
        print(f"consumed {len(records)} records back, all unique: "
              f"every acked record recovered exactly once")

    print("threaded live OK")


if __name__ == "__main__":
    main()
