"""Smoke test of the e2e benchmark (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs a ``--smoke`` size of every workload and checks the output schema, the
metric names, the per-workload metric subsets (main cells against the
issue's table, the rest filled), that a phase too short for its rule yields
a failure and not a number, that the output check fires on a deliberately
dropped record, that a traced run's self times fit inside its wall time,
and that nothing of the SUT survives a run, an interrupt, or a hang.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

from cells import FILL_CELLS, MAIN_CELLS  # noqa: E402


def run_benchmark(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def sut_processes() -> list[int]:
    """Pids of any SUT launcher (or forked backup child) still alive."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if str(HERE / "sut.py").encode() in cmdline:
            found.append(int(entry))
    return found


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_schema_and_cells(workload):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = last_json(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    detail = json.loads((HERE / "out" / f"result-{workload}-trace0.json").read_text())
    assert detail["main_cells"] == list(MAIN_CELLS[workload])
    for name in END_TO_END:
        assert detail["metrics"][name]["samples"] >= 1
        # Every cell is either one the workload exists for or a declared fill.
        assert (name in MAIN_CELLS[workload]) != (name in FILL_CELLS[workload]), name
        assert f"{name} " in proc.stdout
    assert proc.stdout.count("[main]") == len(MAIN_CELLS[workload])
    assert proc.stdout.count("[fill: ") == len(END_TO_END) - len(MAIN_CELLS[workload])
    assert sut_processes() == []


def test_issue_table_of_main_cells():
    """The per-workload subsets of the issue's metric table."""
    column = {w: set(cells) for w, cells in MAIN_CELLS.items()}
    assert all("setup_s" in cells and "cpu_s_per_mrec" in cells for cells in column.values())
    assert {w for w, c in column.items() if "produce_rec_per_s" in c} == {"core-inproc", "gw-ingest"}
    assert {w for w, c in column.items() if "consume_rec_per_s" in c} == {"core-inproc", "gw-scan"}
    assert {w for w, c in column.items() if "produce_ack_p50_ms" in c} == {"gw-ingest", "gw-tail"}
    assert {w for w, c in column.items() if "e2e_p90_ms" in c} == {"gw-tail"}
    assert {w for w, c in column.items() if "mem_bytes_per_user_byte" in c} == {
        "core-inproc", "gw-ingest", "gw-scan"}


def test_a_phase_too_short_for_its_rule_is_a_failure_not_a_number():
    proc = run_benchmark("--workload", "core-inproc", "--seconds", "1")
    assert proc.returncode == 2
    assert "the rule is" in proc.stderr
    assert not proc.stdout.strip().endswith("}")


def test_output_check_fires_on_a_dropped_record():
    proc = run_benchmark(
        "--workload", "core-inproc", "--seconds", "1", "--smoke", "--drop-record"
    )
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
    assert "never read back" in proc.stdout


def test_traced_core_inproc_layers():
    proc = run_benchmark("--workload", "core-inproc", "--seconds", "2", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = last_json(proc)["metrics"]
    assert list(metrics) == PER_LAYER
    for name, metric in metrics.items():
        if name.startswith(("runtime.", "gateway.")):
            assert metric["value"] == 0, name  # no runtime, no gateway: a function call
    assert metrics["wire.encode_s_per_mrec"]["value"] > 0
    assert metrics["storage.append_s_per_mchunk"]["value"] > 0
    assert metrics["kera.broker_produce_s_per_mchunk"]["value"] > 0
    detail = json.loads((HERE / "out" / "result-core-inproc-trace1.json").read_text())
    info = detail["info"]
    # One thread: the self times of all spans together fit in the wall time.
    assert info["trace.max_thread_self_s"] <= info["trace.window_wall_s"]
    assert 0 <= metrics["trace.unattributed_frac"]["value"] < 1
    assert (HERE / "out" / "spans-core-inproc-loadgen.jsonl").stat().st_size > 0


def test_traced_gateway_layers():
    proc = run_benchmark("--workload", "gw-tail", "--seconds", "2", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = last_json(proc)["metrics"]
    assert list(metrics) == PER_LAYER
    assert metrics["runtime.calls"]["value"] > 0
    assert metrics["gateway.requests_served"]["value"] > 0
    assert metrics["runtime.replicate_rtt_p50_ms"]["value"] > 0
    info = json.loads((HERE / "out" / "result-gw-tail-trace1.json").read_text())["info"]
    # Per thread, self times never exceed the time the window was open.
    assert info["trace.max_thread_self_s"] <= info["trace.window_wall_s"]
    assert sut_processes() == []


def test_interrupt_leaves_nothing_behind():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "gw-tail", "--seconds", "20",
         "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 20
    while not sut_processes() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert sut_processes(), "the SUT never started"
    time.sleep(1.0)
    proc.send_signal(signal.SIGINT)
    proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert sut_processes() == []


def test_hung_sut_is_killed_and_reported():
    import harness

    sut = harness.SutProcess(timeout=1.0).start()
    pids = sut.pids
    try:
        os.kill(sut.pid, signal.SIGSTOP)
        with pytest.raises(harness.BenchFailure, match="killed"):
            sut.stats()
    finally:
        sut.close()
    assert not any(harness._alive(pid) for pid in pids)
    assert sut_processes() == []
