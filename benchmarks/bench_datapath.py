"""Data-path microbenchmarks: encode, build, append, ship, flush.

Measures the ingestion hot path stage by stage on the paper's benchmark
workload (100-byte keyless records batched into 16 KB chunks, 8 MB
segments, replication factor 3) and emits machine-readable JSON suitable
for ``scripts/perf_compare.py``. The acceptance metric for the zero-copy
work is ``encode_append_ship``: records/s through producer encode →
chunk build → broker append → replication ship → backup ingest.

The script deliberately touches only APIs that are stable across
revisions (``encode_records``, ``ChunkBuilder``, ``Segment``,
``KeraBrokerCore.handle_produce``, ``KeraSystem.replicate_request``,
``KeraBackupCore.handle_replicate``), so the same file can be pointed at
an older checkout via ``PYTHONPATH`` to record a baseline run::

    PYTHONPATH=src python benchmarks/bench_datapath.py \
        --label after --out BENCH_datapath.json --append

Run with ``--quick`` in CI for a perf-smoke signal; thresholds are
checked (non-blocking) by ``scripts/perf_compare.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # pragma: no cover - import side of the PYTHONPATH contract
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.kera.backup import KeraBackupCore
from repro.kera.broker import KeraBrokerCore
from repro.kera.messages import (
    FetchPosition,
    FetchRequest,
    ProduceRequest,
    ReplicateRequest,
)
from repro.replication.config import ReplicationConfig
from repro.runtime.system import KeraSystem
from repro.storage.config import StorageConfig
from repro.storage.segment import Segment
from repro.wire.chunk import Chunk, ChunkBuilder
from repro.wire.record import Record, encode_records

MB = 1024 * 1024

#: The paper's workload: 100-byte records (10 B header + 90 B value).
RECORD_SIZE = 100
VALUE_SIZE = 90
CHUNK_CAPACITY = 16 * 1024
RECORDS_PER_CHUNK = CHUNK_CAPACITY // RECORD_SIZE  # 163
SEGMENT_SIZE = 8 * MB
REPLICATION_FACTOR = 3
NODES = [0, 1, 2, 3]


def _record_pool(count: int) -> list[Record]:
    """Distinct keyless records so no stage can cache a single encoding."""
    return [
        Record(value=(b"%08d" % i) + b"\x5a" * (VALUE_SIZE - 8))
        for i in range(count)
    ]


def _measure(fn, *, min_time: float) -> dict:
    """Call ``fn`` (returns ``(units, nbytes)``) until ``min_time`` elapses."""
    fn()  # warmup: first-call table building, allocator growth, caches
    iters = 0
    units = 0.0
    nbytes = 0
    t0 = time.perf_counter()
    while True:
        u, b = fn()
        iters += 1
        units += u
        nbytes += b
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            break
    return {
        "units_per_s": units / elapsed,
        "mb_per_s": nbytes / elapsed / 1e6,
        "seconds": elapsed,
        "iters": iters,
    }


# -- stages -------------------------------------------------------------------


def stage_record_encode(pool: list[Record], batch: int):
    cursor = itertools.cycle(range(0, len(pool) - batch, batch))

    def run():
        start = next(cursor)
        payload = encode_records(pool[start : start + batch])
        return batch, len(payload)

    return run


def stage_chunk_build(pool: list[Record], chunks_per_iter: int):
    builder = ChunkBuilder(
        CHUNK_CAPACITY, stream_id=1, streamlet_id=0, producer_id=7
    )
    seq = itertools.count()
    cursor = itertools.cycle(range(0, len(pool) - RECORDS_PER_CHUNK, 64))

    def run():
        nbytes = 0
        for _ in range(chunks_per_iter):
            start = next(cursor)
            payload = encode_records(pool[start : start + RECORDS_PER_CHUNK])
            assert builder.try_append_encoded(payload, RECORDS_PER_CHUNK)
            chunk = builder.build(next(seq))
            nbytes += chunk.size
        return chunks_per_iter * RECORDS_PER_CHUNK, nbytes

    return run


def _premade_chunks(pool: list[Record], count: int, *, seq0: int = 0) -> list[Chunk]:
    builder = ChunkBuilder(
        CHUNK_CAPACITY, stream_id=1, streamlet_id=0, producer_id=7
    )
    chunks = []
    cursor = itertools.cycle(range(0, len(pool) - RECORDS_PER_CHUNK, 64))
    for i in range(count):
        start = next(cursor)
        builder.try_append_encoded(
            encode_records(pool[start : start + RECORDS_PER_CHUNK]),
            RECORDS_PER_CHUNK,
        )
        chunks.append(builder.build(seq0 + i))
    return chunks


def stage_segment_append(pool: list[Record], chunks_per_iter: int):
    chunks = _premade_chunks(pool, chunks_per_iter)
    nbytes = sum(c.size for c in chunks)
    segment_seq = itertools.count()

    def run():
        segment = Segment(
            stream_id=1,
            streamlet_id=0,
            group_id=3,
            segment_id=next(segment_seq),
            capacity=nbytes,
            materialize=True,
        )
        offset = 0
        for chunk in chunks:
            segment.append(chunk, offset)
            offset += chunk.record_count
        return chunks_per_iter, nbytes

    return run


def _fresh_broker_and_backups():
    storage = StorageConfig(segment_size=SEGMENT_SIZE, materialize=True)
    replication = ReplicationConfig(
        replication_factor=REPLICATION_FACTOR,
        virtual_segment_size=SEGMENT_SIZE,
    )
    broker = KeraBrokerCore(
        broker_id=0,
        nodes=list(NODES),
        storage_config=storage,
        replication_config=replication,
    )
    broker.create_stream(1, [0])
    backups = {
        node: KeraBackupCore(node_id=node, materialize=True)
        for node in NODES
        if node != 0
    }
    return broker, backups


def _pump_replication(broker: KeraBrokerCore, backups: dict) -> None:
    while True:
        batches = broker.collect_batches()
        if not batches:
            return
        for batch in batches:
            request = KeraSystem.replicate_request(0, batch)
            for node in batch.backups:
                backups[node].handle_replicate(request)
            broker.complete_batch(batch)


def stage_replication_ship(pool: list[Record], chunks_per_iter: int):
    """Produce pre-encoded chunks and ship them: append + replicate only.

    Payload bytes and CRCs are precomputed once so the stage isolates the
    broker append → virtual log → RPC → backup ingest path.
    """
    broker, backups = _fresh_broker_and_backups()
    template = _premade_chunks(pool, chunks_per_iter)
    payloads = [(c.payload, c.payload_crc, c.record_count) for c in template]
    seq = itertools.count()
    request_ids = itertools.count(1)
    nbytes = sum(c.size for c in template)

    def run():
        chunks = [
            Chunk(
                stream_id=1,
                streamlet_id=0,
                producer_id=7,
                chunk_seq=next(seq),
                record_count=count,
                payload_len=len(payload),
                payload=payload,
                payload_crc=crc,
            )
            for payload, crc, count in payloads
        ]
        broker.handle_produce(
            ProduceRequest(
                request_id=next(request_ids), producer_id=7, chunks=chunks
            )
        )
        _pump_replication(broker, backups)
        return chunks_per_iter, nbytes

    return run


def stage_backup_flush(pool: list[Record], chunks_per_iter: int, tmpdir: str):
    """Backup ingest + asynchronous disk persistence of full batches."""
    template = _premade_chunks(pool, chunks_per_iter)
    batch_bytes = sum(c.size for c in template)
    core = KeraBackupCore(
        node_id=9,
        materialize=True,
        flush_threshold=batch_bytes,
        disk_dir=tmpdir,
    )
    vseg_ids = itertools.count()

    def run():
        request = ReplicateRequest(
            src_broker=0,
            vlog_id=0,
            vseg_id=next(vseg_ids),
            vseg_capacity=batch_bytes,
            batch_checksum=0,
            chunks=list(template),
        )
        _, flush = core.handle_replicate(request)
        if flush is not None:
            core.persist(flush)
        return chunks_per_iter, batch_bytes

    return run


def stage_encode_append_ship(pool: list[Record], chunks_per_iter: int):
    """The acceptance metric: full producer → broker → backup data path."""
    broker, backups = _fresh_broker_and_backups()
    builder = ChunkBuilder(
        CHUNK_CAPACITY, stream_id=1, streamlet_id=0, producer_id=7
    )
    seq = itertools.count()
    request_ids = itertools.count(1)
    cursor = itertools.cycle(range(0, len(pool) - RECORDS_PER_CHUNK, 64))

    def run():
        chunks = []
        nbytes = 0
        for _ in range(chunks_per_iter):
            start = next(cursor)
            payload = encode_records(pool[start : start + RECORDS_PER_CHUNK])
            builder.try_append_encoded(payload, RECORDS_PER_CHUNK)
            chunk = builder.build(next(seq))
            nbytes += chunk.size
            chunks.append(chunk)
        broker.handle_produce(
            ProduceRequest(
                request_id=next(request_ids), producer_id=7, chunks=chunks
            )
        )
        _pump_replication(broker, backups)
        return chunks_per_iter * RECORDS_PER_CHUNK, nbytes

    return run


def _preloaded_broker(pool: list[Record], n_chunks: int):
    """A broker holding ``n_chunks`` durably-replicated chunks of stream 1."""
    broker, backups = _fresh_broker_and_backups()
    chunks = _premade_chunks(pool, n_chunks)
    broker.handle_produce(
        ProduceRequest(request_id=1, producer_id=7, chunks=chunks)
    )
    _pump_replication(broker, backups)
    return broker


def stage_consume_decode(pool: list[Record], n_chunks: int):
    """The consume path: fetch every durable chunk and walk its records.

    The fetch serves cached, CRC-validated frame views and the consumer
    walks lazy record views without copying a payload byte.
    """
    broker = _preloaded_broker(pool, n_chunks)
    request_ids = itertools.count(100)
    position = FetchPosition(stream_id=1, streamlet_id=0, entry=0)

    def run():
        request = FetchRequest(
            request_id=next(request_ids),
            consumer_id=1,
            positions=[position],
            max_chunks_per_entry=n_chunks,
        )
        response = broker.handle_fetch(request)
        records = 0
        nbytes = 0
        for entry in response.entries:
            for chunk in entry.chunks:
                for rv in chunk.record_views():
                    records += 1
                    nbytes += rv.value_len
        assert records == n_chunks * RECORDS_PER_CHUNK
        return records, nbytes

    return run


def _fanout_consumer(cluster, consumer_id: int, total_records: int, rates: dict):
    from repro.kera.client import KeraConsumer

    consumer = KeraConsumer(cluster, consumer_id, [1])
    read = 0
    t0 = time.perf_counter()
    while read < total_records:
        polled = sum(len(c.records()) for c in consumer.poll_views(64))
        if polled == 0:
            time.sleep(0.001)
        read += polled
    rates[consumer_id] = total_records / (time.perf_counter() - t0)


def _fanout_round(
    cluster, n_consumers: int, total_records: int, id0: int, *, rounds: int = 3
) -> float:
    """Mean per-consumer records/s for ``n_consumers`` concurrent groups,
    each reading the whole stream from a cold fan-out cache.  Best of
    ``rounds`` runs: a single run is one wall-clock sample and scheduler
    jitter swamps the 1-vs-8 comparison."""
    import threading

    best = 0.0
    for round_ in range(rounds):
        for core in cluster.brokers.values():
            cache = getattr(core, "fancache", None)
            if cache is not None:
                cache.clear()
        rates: dict[int, float] = {}
        threads = [
            threading.Thread(
                target=_fanout_consumer,
                args=(cluster, id0 + round_ * 16 + i, total_records, rates),
            )
            for i in range(n_consumers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        best = max(best, sum(rates.values()) / len(rates))
    return best


def run_fanout_serve(*, quick: bool) -> dict[str, dict]:
    """Fan-out serving on the threaded driver: N consumer groups over one
    stream. Reports aggregate throughput at 8 groups and the per-consumer
    scaling from 1 to 8 groups (>= 0.9x is the reader-plane acceptance:
    the shared hot-chunk cache pays validation/decode once per chunk, so
    adding groups adds only cache-hit work)."""
    from repro.kera.config import KeraConfig
    from repro.kera.client import KeraProducer
    from repro.kera.threaded import ThreadedKeraCluster

    n_chunks = 48 if quick else 256
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=SEGMENT_SIZE),
        replication=ReplicationConfig(
            replication_factor=REPLICATION_FACTOR,
            virtual_segment_size=SEGMENT_SIZE,
        ),
        chunk_size=CHUNK_CAPACITY,
    )
    with ThreadedKeraCluster(config) as cluster:
        cluster.create_stream(1, 1)
        producer = KeraProducer(cluster, producer_id=7)
        payload = encode_records(_record_pool(RECORDS_PER_CHUNK))
        total_records = 0
        for built in range(1, n_chunks + 1):
            builder = producer._builder(1, 0)
            assert builder.try_append_encoded(payload, RECORDS_PER_CHUNK)
            producer._seal(1, 0)
            total_records += RECORDS_PER_CHUNK
            if built % 16 == 0:
                producer.flush()
        producer.close()
        per_1 = _fanout_round(cluster, 1, total_records, id0=100)
        per_8 = _fanout_round(cluster, 8, total_records, id0=200)
    scaling = per_8 / per_1 if per_1 else 0.0
    print(
        f"  {'fanout_serve':<22} {per_8 * 8:>14,.0f} records/s "
        f"(8 groups; per-consumer {per_8:,.0f}, 1-group {per_1:,.0f}, "
        f"scaling {scaling:.2f}x)"
    )
    return {
        "fanout_serve": {
            "value": per_8 * 8,
            "unit": "records/s",
            "per_consumer_1": per_1,
            "per_consumer_8": per_8,
            "chunks": n_chunks,
        },
        "fanout_scaling_1_to_8": {"value": scaling, "unit": "x"},
    }


# -- harness ------------------------------------------------------------------


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(_REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def run_suite(*, quick: bool) -> dict:
    min_time = 0.08 if quick else 0.4
    chunks_per_iter = 2 if quick else 8
    pool = _record_pool(4096)
    results: dict[str, dict] = {}

    def bench(name: str, fn, unit: str) -> None:
        stats = _measure(fn, min_time=min_time)
        results[name] = {
            "value": stats["units_per_s"],
            "unit": unit,
            "mb_per_s": stats["mb_per_s"],
            "seconds": stats["seconds"],
            "iters": stats["iters"],
        }
        print(
            f"  {name:<22} {stats['units_per_s']:>14,.0f} {unit:<10}"
            f" ({stats['mb_per_s']:8.2f} MB/s, {stats['iters']} iters)"
        )

    print(f"datapath microbenchmarks ({'quick' if quick else 'full'} mode)")
    bench("record_encode", stage_record_encode(pool, 1024), "records/s")
    bench("chunk_build", stage_chunk_build(pool, chunks_per_iter), "records/s")
    bench(
        "segment_append",
        stage_segment_append(pool, max(chunks_per_iter, 32)),
        "chunks/s",
    )
    bench(
        "replication_ship",
        stage_replication_ship(pool, chunks_per_iter),
        "chunks/s",
    )
    with tempfile.TemporaryDirectory(prefix="bench_flush_") as tmpdir:
        bench(
            "backup_flush",
            stage_backup_flush(pool, chunks_per_iter, tmpdir),
            "chunks/s",
        )
    bench(
        "encode_append_ship",
        stage_encode_append_ship(pool, chunks_per_iter),
        "records/s",
    )
    bench(
        "consume_decode",
        stage_consume_decode(pool, 16 if quick else 48),
        "records/s",
    )
    results.update(run_fanout_serve(quick=quick))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="run", help="name for this run")
    parser.add_argument("--out", default=None, help="write/merge JSON here")
    parser.add_argument(
        "--append",
        action="store_true",
        help="merge into --out instead of overwriting (replaces same label)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="short timings for CI smoke"
    )
    args = parser.parse_args(argv)

    benchmarks = run_suite(quick=args.quick)
    run = {
        "label": args.label,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "quick": args.quick,
        "workload": {
            "record_size": RECORD_SIZE,
            "chunk_capacity": CHUNK_CAPACITY,
            "records_per_chunk": RECORDS_PER_CHUNK,
            "segment_size": SEGMENT_SIZE,
            "replication_factor": REPLICATION_FACTOR,
        },
        "benchmarks": benchmarks,
    }

    if args.out is None:
        print(json.dumps(run, indent=2))
        return 0
    out = Path(args.out)
    doc = {"schema": 1, "runs": []}
    if args.append and out.exists():
        doc = json.loads(out.read_text())
    doc["runs"] = [r for r in doc["runs"] if r["label"] != args.label]
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"saved run '{args.label}' to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
