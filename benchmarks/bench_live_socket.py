"""Live-socket benchmarks: the TCP replication plane and the gateway.

Two faces, matching the other live benches:

* **pytest** (the CI ``socket-smoke`` job): a correctness-asserted smoke
  comparing :class:`SocketKeraCluster` against the shared-memory
  :class:`ProcessKeraCluster` on the same workload, plus the
  1000-connection gateway smoke (zero acked-record loss is asserted, not
  sampled);
* **CLI**: records a ``sockets`` row plus a ``sockets-baseline`` row
  (the same ship harness over the shared-memory ring pipe,
  measured back to back so the ratio cancels machine speed) into
  ``BENCH_datapath.json`` for ``scripts/perf_compare.py`` —

  - ``replication_ship``: chunks/s through the paper workload's
    replicate path over real TCP (scatter-gather ``sendmsg`` out of
    premade chunk frames, pipelined ``call_async`` with byte-credit
    backpressure, CRC re-validation in the child). Gated within 0.5x
    of the shared-memory row via ``perf_compare.py --baseline
    sockets-baseline --candidate sockets --require replication_ship=0.5``;
  - ``gateway_produce``: records/s acked end-to-end through the asyncio
    gateway across concurrent producer connections;
  - ``produce_p50_ms`` / ``produce_p99_ms``: produce-flush latency
    percentiles alongside the throughput, per the Kafka
    benchmark-practices survey (means hide the tail that production
    systems gate on).

Usage::

    PYTHONPATH=src python benchmarks/bench_live_socket.py \\
        --label sockets --out BENCH_datapath.json --append
    PYTHONPATH=src python -m pytest benchmarks/bench_live_socket.py -q -s
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # pragma: no cover - import side of the PYTHONPATH contract
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.common.units import KB, MB, fmt_rate
from repro.replication.config import ReplicationConfig
from repro.runtime import ProcessServiceSpec, SocketServiceSpec, WorkerTransport
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, KeraConsumer, KeraProducer
from repro.kera.messages import ReplicateRequest
from repro.kera.backup_service import BackupService
from repro.kera.process import ProcessKeraCluster
from repro.kera.socket_cluster import SocketKeraCluster
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer, GatewayServer
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record

#: The paper's workload, matching bench_datapath.py.
RECORD_SIZE = 100
VALUE_SIZE = 90
CHUNK_CAPACITY = 16 * 1024
RECORDS_PER_CHUNK = CHUNK_CAPACITY // RECORD_SIZE


def _cluster_config() -> KeraConfig:
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=1 * MB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=4,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=4 * KB,
    )


def _premade_frames(count: int) -> list[bytes]:
    """Sealed 16 KB chunk frames of distinct 100-byte records."""
    builder = ChunkBuilder(CHUNK_CAPACITY, stream_id=1, streamlet_id=0, producer_id=7)
    seq = itertools.count()
    frames = []
    for i in range(count):
        for j in range(RECORDS_PER_CHUNK):
            builder.try_append(
                Record(value=(b"%04d%04d" % (i, j)) + b"\x5a" * (VALUE_SIZE - 8))
            )
        frames.append(builder.build(chunk_seq=next(seq)).wire)
    return frames


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(len(sorted_values) * q), len(sorted_values) - 1)
    return sorted_values[index]


# -- replication_ship over TCP ------------------------------------------------


def _ship_transport(kind: str):
    """A started transport with one backup child, for either plane.

    ``sockets`` frames requests over a real TCP connection; ``process``
    moves the same bytes through the shared-memory ring. Both cross an
    address-space boundary, so both children pay the same CRC
    re-validation — the comparison isolates the wire, not the checks.
    """
    worker_kwargs = {"node_id": 9, "materialize": True, "flush_threshold": 1 << 62}
    if kind == "sockets":
        spec = SocketServiceSpec(
            factory=BackupService.in_worker, kwargs=worker_kwargs, window_bytes=8 * MB
        )
    elif kind == "process":
        spec = ProcessServiceSpec(
            factory=BackupService.in_worker, kwargs=worker_kwargs, ring_bytes=8 * MB
        )
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown transport kind {kind!r}")
    transport = WorkerTransport(call_timeout=30.0, write_timeout=30.0)
    transport.register(9, "backup", spec)
    transport.start()
    return transport


def measure_replication_ship(
    *,
    min_time: float,
    transport_kind: str = "sockets",
    chunks_per_batch: int = 16,
    pipeline_depth: int = 8,
) -> dict:
    """Chunks/s through one backup child: premade frames, pipelined acks.

    Mirrors ``bench_datapath.stage_replication_ship`` shape (append →
    ship → backup ingest) with the ship leg crossing a real boundary:
    over ``sockets``, requests leave via vectored ``sendmsg`` straight
    from the frame buffers, the child re-validates CRCs, acks stream
    back as packed 20-byte frames; over ``process``, the identical
    requests cross the shared-memory ring instead.
    """
    transport = _ship_transport(transport_kind)
    try:
        frames = tuple(_premade_frames(chunks_per_batch))
        batch_bytes = sum(len(f) for f in frames)
        vseg_ids = itertools.count()
        in_flight = threading.Semaphore(pipeline_depth)
        errors: list[BaseException] = []
        done_batches = [0]
        done_lock = threading.Lock()

        def on_done(response, error):
            if error is not None:
                errors.append(error)
            with done_lock:
                done_batches[0] += 1
            in_flight.release()

        def ship_one() -> None:
            request = ReplicateRequest(
                src_broker=0,
                vlog_id=0,
                vseg_id=next(vseg_ids),
                vseg_capacity=batch_bytes,
                batch_checksum=0,
                frames=frames,
                frames_verified=True,
            )
            in_flight.acquire()
            transport.call_async(
                0, 9, "backup", "replicate", request, batch_bytes, on_done=on_done
            )

        ship_one()  # warmup: child-side allocator growth, connection ramp
        sent = 1
        t0 = time.perf_counter()
        sent_at_t0 = sent
        while True:
            ship_one()
            sent += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_time:
                break
        # Drain the pipeline so the rate counts only acked work.
        for _ in range(pipeline_depth):
            in_flight.acquire()
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]
        batches = sent - sent_at_t0 + 1
        chunks = batches * chunks_per_batch
        return {
            "value": chunks / elapsed,
            "unit": "chunks/s",
            "mb_per_s": batches * batch_bytes / elapsed / 1e6,
            "seconds": elapsed,
            "iters": batches,
        }
    finally:
        transport.shutdown()


# -- gateway produce throughput + latency percentiles -------------------------


async def _gateway_producer(
    host: str,
    port: int,
    pid: int,
    records: int,
    flush_every: int,
    latencies: list[float],
    *,
    pipeline: int = 1,
    linger_ms: float = 0.0,
) -> int:
    # Workload generation is not the system under test: materialize every
    # value up front so the timed windows measure produce, not formatting.
    tail = b"\x5a" * (VALUE_SIZE - 8)
    values = [(b"%03d%05d" % (pid, i)) + tail for i in range(records)]
    async with await AsyncGatewayClient.connect(host, port) as client:
        producer = await AsyncProducer.open(
            client, pid, stream_id=0, max_inflight=pipeline, linger_ms=linger_ms
        )
        for base in range(0, records, flush_every):
            producer.send_many(values[base : base + flush_every])
            start = time.perf_counter()
            await producer.flush()
            latencies.append(time.perf_counter() - start)
        await producer.close()
        return producer.records_sent


async def _drive_gateway(
    host: str,
    port: int,
    *,
    connections: int,
    records: int,
    flush_every: int,
    pipeline: int = 1,
) -> tuple[float, int, list[float]]:
    async with await AsyncGatewayClient.connect(host, port) as admin:
        await admin.create_stream(0, 8)
    # Warmup: one untimed producer round populates the process-wide CRC
    # engine caches (lane/word tables, positional stitch tables for the
    # workload's chunk lengths) and asyncio's machinery, so the timed
    # percentiles measure steady state rather than first-touch setup.
    warm_sent = await _gateway_producer(
        host, port, 999, 2 * flush_every, flush_every, [], pipeline=pipeline
    )
    latencies: list[float] = []
    start = time.monotonic()
    sent = await asyncio.gather(
        *(
            _gateway_producer(
                host, port, pid, records, flush_every, latencies, pipeline=pipeline
            )
            for pid in range(connections)
        )
    )
    elapsed = time.monotonic() - start
    async with await AsyncGatewayClient.connect(host, port) as client:
        consumer = await AsyncConsumer.open(client, 0, stream_id=0)
        consumed = len(await consumer.drain(max_rounds=100_000))
    total = sum(sent)
    if consumed != total + warm_sent:
        raise AssertionError(
            f"acked-record loss: {consumed} consumed of {total + warm_sent} acked"
        )
    latencies.sort()
    return elapsed, total, latencies


def measure_gateway_produce(
    *, connections: int, records: int, flush_every: int = 50, pipeline: int = 1
) -> dict:
    with SocketKeraCluster(_cluster_config(), ack_timeout=30.0) as cluster:
        with GatewayServer(cluster) as gateway:
            host, port = gateway.address()
            elapsed, total, latencies = asyncio.run(
                _drive_gateway(
                    host,
                    port,
                    connections=connections,
                    records=records,
                    flush_every=flush_every,
                    pipeline=pipeline,
                )
            )
    # Latency rows own their sample accounting: `seconds` is time spent
    # inside the timed flushes and `iters` the sample count — NOT the
    # whole run's elapsed/total, which made --history trajectories read
    # as if percentiles had throughput denominators.
    latency_seconds = sum(latencies)
    return {
        "throughput": {
            "value": total / elapsed,
            "unit": "records/s",
            "seconds": elapsed,
            "iters": total,
        },
        "p50_ms": {
            "value": percentile(latencies, 0.50) * 1e3,
            "unit": "ms",
            "seconds": latency_seconds,
            "iters": len(latencies),
            "samples": len(latencies),
        },
        "p99_ms": {
            "value": percentile(latencies, 0.99) * 1e3,
            "unit": "ms",
            "seconds": latency_seconds,
            "iters": len(latencies),
            "samples": len(latencies),
        },
    }


# -- pytest face (CI socket-smoke) --------------------------------------------

PRODUCERS = 4
RECORDS_EACH = 1_500
STREAMLETS = 8


def _produce(cluster, producer_id):
    producer = KeraProducer(cluster, producer_id=producer_id)
    for i in range(RECORDS_EACH):
        producer.send(0, f"p{producer_id}-{i:06d}".encode())
        if i % 250 == 249:
            producer.flush()
    producer.flush()


def _run_cluster_workload(cluster):
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


def test_live_socket(benchmark):
    """Socket cluster vs shared-memory process cluster, same workload."""
    out = {}

    def sweep():
        out["process"] = _run_cluster_workload(ProcessKeraCluster(_cluster_config()))
        out["sockets"] = _run_cluster_workload(SocketKeraCluster(_cluster_config()))
        return out

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    total = PRODUCERS * RECORDS_EACH
    print(f"\n== live mode: {PRODUCERS} producers x {RECORDS_EACH} records, "
          f"R3 pipelined (depth 4, 2 MB window), {STREAMLETS} streamlets")
    for name in ("process", "sockets"):
        elapsed, consumed, chunks, backup_chunks = out[name]
        print(f"   {name:>9}: {fmt_rate(total / elapsed)} ack throughput, "
              f"{consumed} consumed, {backup_chunks} backup copies")
        # Correctness before speed: every acked record read back, and
        # every ingested chunk durable on both non-leader replicas.
        assert consumed == total
        assert backup_chunks == 2 * chunks


async def _one_smoke_connection(host: str, port: int, pid: int, records: int) -> int:
    async with await AsyncGatewayClient.connect(host, port) as client:
        producer = AsyncProducer(
            client,
            pid,
            stream_id=0,
            chunk_size=4 * KB,
            streamlet_ids=[0, 1, 2, 3],
        )
        for i in range(records):
            producer.send(f"p{pid}-r{i}".encode())
        await producer.close()
        return producer.records_sent


async def _smoke_1k(host: str, port: int, connections: int, records: int) -> None:
    async with await AsyncGatewayClient.connect(host, port) as admin:
        await admin.create_stream(0, 4)
    sent = await asyncio.gather(
        *(
            _one_smoke_connection(host, port, pid, records)
            for pid in range(connections)
        )
    )
    assert sent == [records] * connections
    async with await AsyncGatewayClient.connect(host, port) as client:
        consumer = await AsyncConsumer.open(client, 0, stream_id=0)
        values = [r.value for r in await consumer.drain(max_rounds=100_000)]
    # Zero acked-record loss, zero duplication, across every connection.
    assert len(values) == connections * records
    assert len(set(values)) == len(values)


def test_gateway_1k_connections():
    """The gateway sustains 1000 concurrent producer connections."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    # Each connection is two fds in this single process (client + server
    # end); raise the soft limit toward the hard cap if it would bind.
    needed = 2 * 1000 + 512
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    connections = 1000 if soft >= needed else max(64, (soft - 512) // 2)
    with SocketKeraCluster(_cluster_config(), ack_timeout=30.0) as cluster:
        with GatewayServer(cluster) as gateway:
            host, port = gateway.address()
            asyncio.run(_smoke_1k(host, port, connections, 10))
            assert gateway.stats.errors_returned == 0
    assert connections >= 1000, (
        f"fd limit allowed only {connections} connections (soft limit {soft})"
    )


async def _one_pipelined_connection(
    host: str, port: int, pid: int, records: int
) -> int:
    async with await AsyncGatewayClient.connect(host, port) as client:
        producer = await AsyncProducer.open(
            client, pid, stream_id=0, max_inflight=4, linger_ms=5.0
        )
        for i in range(records):
            producer.send(f"p{pid}-r{i}".encode())
        await producer.close()  # drains the in-flight window
        return producer.records_sent


async def _smoke_pipelined(
    host: str, port: int, connections: int, records: int
) -> None:
    async with await AsyncGatewayClient.connect(host, port) as admin:
        await admin.create_stream(0, 4)
    sent = await asyncio.gather(
        *(
            _one_pipelined_connection(host, port, pid, records)
            for pid in range(connections)
        )
    )
    assert sent == [records] * connections
    async with await AsyncGatewayClient.connect(host, port) as client:
        consumer = await AsyncConsumer.open(client, 0, stream_id=0)
        values = [r.value for r in await consumer.drain(max_rounds=100_000)]
    assert len(values) == connections * records
    assert len(set(values)) == len(values)


def test_gateway_256_pipelined_produce():
    """256 connections pipelining 4-deep: zero acked-record loss, and the
    in-flight produce gauge proves no thread-per-request parking — its
    peak far exceeds the 16 executor workers while staying bounded by
    connections x max_inflight."""
    import resource

    connections, records, max_inflight = 256, 200, 4
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    needed = 2 * connections + 512
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
    with SocketKeraCluster(_cluster_config(), ack_timeout=30.0) as cluster:
        with GatewayServer(cluster) as gateway:
            host, port = gateway.address()
            asyncio.run(_smoke_pipelined(host, port, connections, records))
            stats = gateway.stats
            assert stats.errors_returned == 0
            # The gauge drained: every accepted produce resolved.
            assert stats.inflight_produces == 0
            # More produces were in flight at once than there are
            # executor threads — impossible under thread-per-request
            # parking, the load-bearing assertion of the async path.
            assert stats.inflight_produces_peak > 16, stats.inflight_produces_peak
            # ...and bounded by what the clients could legally pipeline.
            assert stats.inflight_produces_peak <= connections * max_inflight
        assert cluster.inflight_produce_count() == 0


# -- CLI face -----------------------------------------------------------------


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=_REPO_ROOT,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):  # pragma: no cover
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="sockets", help="name for this run")
    parser.add_argument("--out", default=None, help="write/merge JSON here")
    parser.add_argument(
        "--append",
        action="store_true",
        help="merge into --out instead of overwriting (replaces same label)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="short timings for CI smoke"
    )
    parser.add_argument(
        "--gateway-only",
        action="store_true",
        help="skip the replication_ship rows; record only the gateway stages",
    )
    parser.add_argument(
        "--pipeline",
        type=int,
        default=1,
        metavar="N",
        help="AsyncProducer max_inflight for the gateway run (default 1)",
    )
    args = parser.parse_args(argv)

    min_time = 0.2 if args.quick else 1.0
    connections = 16 if args.quick else 64
    records = 200 if args.quick else 500

    baseline = ship = None
    if not args.gateway_only:
        # The shared-memory ring baseline and the TCP
        # candidate are measured back to back with the same harness and
        # workload, so the recorded ratio (the 0.5x acceptance gate) is
        # insensitive to how fast this particular machine happens to be.
        baseline = measure_replication_ship(min_time=min_time, transport_kind="process")
        print(f"replication_ship (shm ring): {baseline['value']:,.0f} chunks/s "
              f"({baseline['mb_per_s']:.1f} MB/s)")
        ship = measure_replication_ship(min_time=min_time, transport_kind="sockets")
        print(f"replication_ship (TCP): {ship['value']:,.0f} chunks/s "
              f"({ship['mb_per_s']:.1f} MB/s, "
              f"{ship['value'] / baseline['value']:.2f}x of shm)")
    gateway = measure_gateway_produce(
        connections=connections, records=records, pipeline=args.pipeline
    )
    print(f"gateway_produce: {gateway['throughput']['value']:,.0f} records/s "
          f"over {connections} connections (pipeline {args.pipeline}); "
          f"produce flush p50 {gateway['p50_ms']['value']:.2f} ms / "
          f"p99 {gateway['p99_ms']['value']:.2f} ms")

    workload = {
        "record_size": RECORD_SIZE,
        "chunk_capacity": CHUNK_CAPACITY,
        "records_per_chunk": RECORDS_PER_CHUNK,
        "replication_factor": 3,
    }
    gateway_benchmarks = {
        "gateway_produce": gateway["throughput"],
        "produce_p50_ms": gateway["p50_ms"],
        "produce_p99_ms": gateway["p99_ms"],
    }
    candidate_run = {
        "label": args.label,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "quick": args.quick,
        "workload": {
            **workload,
            "transport": "tcp-sockets",
            "gateway_connections": connections,
            "produce_pipeline": args.pipeline,
        },
        "benchmarks": dict(gateway_benchmarks),
    }
    runs = [candidate_run]
    if not args.gateway_only:
        assert baseline is not None and ship is not None
        candidate_run["benchmarks"]["replication_ship"] = ship
        runs.insert(
            0,
            {
                "label": f"{args.label}-baseline",
                "git_rev": _git_rev(),
                "python": platform.python_version(),
                "quick": args.quick,
                "workload": {**workload, "transport": "shm-process-ring"},
                "benchmarks": {"replication_ship": baseline},
            },
        )

    if args.out is None:
        print(json.dumps(runs, indent=2))
        return 0
    out = Path(args.out)
    doc = {"schema": 1, "runs": []}
    if args.append and out.exists():
        doc = json.loads(out.read_text())
    replaced = {run["label"] for run in runs}
    doc["runs"] = [r for r in doc["runs"] if r["label"] not in replaced]
    doc["runs"].extend(runs)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} ({len(doc['runs'])} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
