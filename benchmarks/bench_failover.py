"""Failover benchmark: SIGKILL a broker under live load, time recovery.

Runs the chaos harness (:mod:`repro.failover.chaos`) against a live
cluster — by default the process driver, so the kill is a real
``SIGKILL`` of a worker process and detection flows through transport
liveness — and records the two metrics the failover plane exists to
bound:

* ``recovery_time_ms`` — fence-to-rerouted wall clock for one node
  death (lower is better, unit ``ms``);
* ``failover_throughput_dip`` — fraction of the steady-state ack rate
  lost during the recovery window (lower is better, unit ``frac``);

plus ``failover_parallelism``, the number of recovery lanes observed
running concurrently (must exceed 1: recovery is parallel by design).

The run refuses to record numbers from a broken recovery: any acked
record missing after recovery, or a recovery that errored, aborts with
a non-zero exit instead of producing a flattering datapoint.

Usage::

    PYTHONPATH=src python benchmarks/bench_failover.py \
        --label failover --out BENCH_datapath.json --append

Compare with the lower-is-better semantics::

    python scripts/perf_compare.py BENCH_datapath.json --latency \
        --baseline failover --candidate failover-after \
        --require-abs recovery_time_ms=2000 \
        --require-abs failover_throughput_dip=0.99
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.units import KB  # noqa: E402
from repro.failover import FailoverPlane  # noqa: E402
from repro.failover.chaos import run_chaos  # noqa: E402
from repro.replication.config import ReplicationConfig  # noqa: E402
from repro.storage.config import StorageConfig  # noqa: E402
from repro.kera.config import KeraConfig  # noqa: E402


def _config() -> KeraConfig:
    return KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3, vlogs_per_broker=2, pipeline_depth=4
        ),
        chunk_size=4 * KB,
    )


def _make_cluster(driver: str):
    if driver == "threaded":
        from repro.kera.threaded import ThreadedKeraCluster

        return ThreadedKeraCluster(_config())
    if driver == "process":
        from repro.kera.process import ProcessKeraCluster

        return ProcessKeraCluster(_config())
    if driver == "socket":
        from repro.kera.socket_cluster import SocketKeraCluster

        return SocketKeraCluster(_config())
    raise SystemExit(f"unknown driver {driver!r}")


def run_suite(*, quick: bool, driver: str) -> dict:
    warmup = 0.3 if quick else 1.0
    with _make_cluster(driver) as cluster:
        plane = FailoverPlane(cluster, heartbeat_interval=0.05, lease_timeout=1.0)
        with plane:
            result = run_chaos(
                cluster,
                plane,
                producers=8,
                warmup_seconds=warmup,
                post_seconds=warmup / 2,
            )
    report = result.report
    if report is None:
        raise SystemExit("recovery did not complete within the timeout")
    if report.error is not None:
        raise SystemExit(f"recovery failed: {report.error!r}")
    if not result.zero_loss:
        raise SystemExit(
            f"acked-record loss: {len(result.lost)} lost, "
            f"{len(result.duplicated)} duplicated — not recording numbers"
        )
    if result.producer_errors:
        raise SystemExit(f"producers died: {result.producer_errors!r}")
    print(
        f"failover ({driver}, kill={result.kill_mode}): "
        f"{result.acked} acked records all verified, "
        f"{result.retries} retries, "
        f"recovery {result.recovery_ms:.1f} ms, "
        f"parallelism {result.parallelism}, "
        f"dip {result.throughput_dip:.3f}"
    )
    return {
        "recovery_time_ms": {
            "value": result.recovery_ms,
            "unit": "ms",
            "detail": f"{driver} driver, kill={result.kill_mode}, "
            f"{report.chunks_recovered} chunks replayed",
        },
        "failover_throughput_dip": {
            "value": result.throughput_dip,
            "unit": "frac",
            "detail": f"{result.throughput_before:.0f} -> "
            f"{result.throughput_during:.0f} acks/s over the recovery window",
        },
        "failover_parallelism": {
            "value": result.parallelism,
            "unit": "lanes",
            "detail": f"{len(report.lanes)} lanes total",
        },
        "failover_acked_rate": {
            "value": result.throughput_before,
            "unit": "records/s",
            "detail": f"{result.acked} acked across the run",
        },
    }


def _git_rev() -> str:
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                stderr=subprocess.DEVNULL,
            )
            .decode()
            .strip()
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="failover", help="name for this run")
    parser.add_argument("--out", default=None, help="write/merge JSON here")
    parser.add_argument(
        "--append",
        action="store_true",
        help="merge into --out instead of overwriting (replaces same label)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="short warmup for CI smoke"
    )
    parser.add_argument(
        "--driver",
        default="process",
        choices=("threaded", "process", "socket"),
        help="live driver to kill a node of (default: process, real SIGKILL)",
    )
    args = parser.parse_args(argv)

    benchmarks = run_suite(quick=args.quick, driver=args.driver)
    run = {
        "label": args.label,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "quick": args.quick,
        "workload": {
            "driver": args.driver,
            "producers": 8,
            "brokers": 4,
            "replication_factor": 3,
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
