#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, nine end-to-end metrics.

    python3 benchmarks/e2e/run.py --workload all --seed 1            # every workload
    python3 benchmarks/e2e/run.py --workload all --seed 1 --trace 1  # + per-layer spans
    python3 benchmarks/e2e/run.py --workload gw-tail --seed 7 --seconds 20 --trace 0

Each run prints every metric by name with its unit and sample count, the
operations attempted and failed, and the verdict of the output check; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) — the end-to-end metrics of an
untraced run, the per-layer metrics of a traced one. The exit code is
non-zero when the output check fails, an operation fails, or the SUT had
to be killed. ``--workload all`` runs each workload in a process of its
own, one after the other. See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent.parent / "src"
if not (_SRC / "repro").is_dir():
    raise SystemExit(f"run.py: no source tree at {_SRC} (run from a checkout of the repo)")
sys.path.insert(0, str(_SRC))
sys.path.insert(0, str(_HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = _HERE / "out"
BENCHMARK = json.loads((_HERE.parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def report(spec: workloads.RunSpec, result: workloads.Result, wall: float) -> dict:
    """Print the human-readable block; return the contract's JSON object."""
    out = sys.stdout
    config = ", ".join(f"{k}={v}" for k, v in result.config.items())
    out.write(f"== {result.workload}  seed={spec.seed} seconds={spec.seconds:g} "
              f"trace={int(spec.trace)}{' SMOKE' if spec.smoke else ''}  [{config}]\n")
    if spec.trace:
        out.write("   traced run: the end-to-end numbers below carry the tracer's cost "
                  "and are not the benchmark's\n")
    for name, metric in END_TO_END.items():
        value, samples = result.metrics[name]
        out.write(f"   {name:<26} {value:>14.4f} {metric['unit']:<7} samples={samples:<8} "
                  f"[{result.source(name)}]\n")
    for name, value in result.info.items():
        out.write(f"     {name:<42} {value:>14.4f}\n")
    if spec.trace:
        for name in PER_LAYER:
            out.write(f"   {name:<42} {result.layers[name]:>16.6f} {PER_LAYER[name]['unit']}\n")
    out.write(f"   operations attempted={result.attempted} failed={result.failed}  "
              f"output check: {'ok' if result.correct else 'FAILED'}  wall={wall:.1f}s\n")
    for error in result.errors:
        out.write(f"   check: {error}\n")
    if spec.trace:
        metrics = {
            name: {"value": float(result.layers[name]), "unit": PER_LAYER[name]["unit"]}
            for name in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": result.metrics[name][0], "unit": metric["unit"]}
            for name, metric in END_TO_END.items()
        }
    line = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    # Everything the run knows, for agree.py, the smoke test and the curious.
    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        **line,
        "workload": result.workload,
        "seed": spec.seed,
        "seconds": spec.seconds,
        "metrics": {
            name: {"value": value, "unit": END_TO_END[name]["unit"], "samples": samples}
            for name, (value, samples) in result.metrics.items()
        },
        "main_cells": list(workloads.MAIN_CELLS[result.workload]),
        "info": result.info,
        "layers": result.layers,
        "config": result.config,
        "errors": result.errors,
    }
    path = OUT_DIR / f"result-{result.workload}-trace{int(spec.trace)}.json"
    path.write_text(json.dumps(detail, indent=1))
    return line


def run_one(spec: workloads.RunSpec) -> int:
    start = time.perf_counter()
    try:
        result = workloads.run(spec)
    except harness.BenchFailure as exc:
        print(f"== {spec.workload}: FAILED, no numbers: {exc}", file=sys.stderr)
        return 2
    line = report(spec, result, time.perf_counter() - start)
    print(json.dumps(line), flush=True)
    return 0 if result.correct and result.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process (as the driver runs them)."""
    worst = 0
    start = time.perf_counter()
    for name in workloads.WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            command = [
                sys.executable, str(_HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            worst = max(worst, subprocess.run(command).returncode)
    print(f"== all workloads: {time.perf_counter() - start:.0f}s wall, "
          f"{'ok' if worst == 0 else 'FAILED'}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
                        help="length of the timed phases of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: record spans, print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed-size parts, for the smoke test; numbers are meaningless")
    parser.add_argument("--drop-record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(
        workloads.RunSpec(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            smoke=args.smoke, drop_record=args.drop_record,
        )
    )


if __name__ == "__main__":
    raise SystemExit(main())
