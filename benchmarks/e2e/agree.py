#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs two sets of N full runs of the same checkout, alternating workloads
(A-set and B-set runs interleave, so drift hits both alike), and prints for
every (metric, workload) pair both medians, the quartile spread of each set
as a share of its median, and the relative gap between the two medians.
Exits non-zero if any spread (``setup_s`` excepted) or any gap, in either
direction — it is the same code — exceeds the metric's bound in
``BENCHMARK.json``. The driver applies the same two tests to every cell,
main or fill, before it accepts the benchmark; so does this.

    python3 benchmarks/e2e/agree.py --runs 10 --markdown benchmarks/e2e/AGREEMENT.md
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((_HERE.parent.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(_HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    # The machine's own speed around this run's timed phases (informational).
    info = json.loads((_HERE / "out" / f"result-{workload}-trace0.json").read_text())["info"]
    line["calib_mops"] = (info["machine.calib_mops.before"] + info["machine.calib_mops.after"]) / 2
    return line


#: Not a metric of the benchmark: the fixed spin run before and after each
#: run's timed phases, tabulated so the machine's own spread shows.
CALIB = "machine.calib_mops"


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--markdown", help="also write the table to this file")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    # values[set][workload][metric] -> list over runs
    values = [{w: {} for w in workloads} for _ in range(2)]
    start = time.perf_counter()
    for run in range(args.runs):
        for which in (0, 1):
            for workload in workloads:
                seed = 1 + run + which * args.runs  # every run has another seed
                line = one_run(workload, seed, args.seconds)
                for name, metric in line["metrics"].items():
                    values[which][workload].setdefault(name, []).append(metric["value"])
                values[which][workload].setdefault(CALIB, []).append(line["calib_mops"])
                print(f"set {'AB'[which]} run {run + 1}/{args.runs} {workload}: ok "
                      f"({time.perf_counter() - start:.0f}s)", file=sys.stderr, flush=True)

    sys.path.insert(0, str(_HERE))
    from cells import MAIN_CELLS

    header = (
        "| workload | metric | cell | unit | bound | median A | spread A | median B | spread B "
        "| gap | verdict |\n|---|---|---|---|---|---|---|---|---|---|---|"
    )
    rows = []
    failures = 0
    for workload in workloads:
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = values[0][workload][name], values[1][workload][name]
            gap = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            spreads = (spread(a), spread(b))
            too_wide = name != "setup_s" and max(spreads) > bound
            bad = too_wide or abs(gap) > bound
            failures += bad
            rows.append(
                f"| {workload} | {name} | {'main' if name in MAIN_CELLS[workload] else 'fill'} "
                f"| {metric['unit']} | {bound:.2f} "
                f"| {statistics.median(a):.4g} | {spreads[0]:.1%} "
                f"| {statistics.median(b):.4g} | {spreads[1]:.1%} | {gap:+.1%} "
                f"| {'FAIL' if bad else 'ok'} |"
            )
        a, b = values[0][workload][CALIB], values[1][workload][CALIB]
        gap = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
        rows.append(
            f"| {workload} | {CALIB} | info | Mops | — | {statistics.median(a):.4g} "
            f"| {spread(a):.1%} | {statistics.median(b):.4g} | {spread(b):.1%} | {gap:+.1%} | — |"
        )
    table = "\n".join([header, *rows])
    summary = (
        f"{args.runs} runs per set, {args.seconds:g} s per run, seeds 1..{2 * args.runs}, "
        f"sets interleaved; {time.perf_counter() - start:.0f} s wall. "
        f"{'All pairs within their bounds.' if failures == 0 else f'{failures} pairs out of bounds.'}"
    )
    print(table)
    print(summary)
    if args.markdown:
        Path(args.markdown).write_text(
            "# Agreement of the benchmark with itself\n\n"
            "Produced by `python3 benchmarks/e2e/agree.py`. *spread* is the distance between\n"
            "the first and third quartile of a set's runs as a share of its median; *gap* is\n"
            "(median B − median A) ÷ median A. A pair fails when a spread (`setup_s` excepted)\n"
            "or the gap, in either direction, exceeds the bound. *cell* says whether the pair is\n"
            "one the workload exists to measure (main) or one the driver's contract has it\n"
            "print anyway (fill, see README.md). The `machine.calib_mops` rows are not metrics: a\n"
            "fixed spin run before and after each run's timed phases, here so that the machine's\n"
            "own spread over the same runs can be read beside the benchmark's.\n\n"
            f"{summary}\n\n{table}\n"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
