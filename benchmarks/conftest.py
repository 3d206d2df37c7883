"""Benchmark-suite plumbing.

Each ``bench_figures`` case runs one paper figure through the discrete-
event harness (timed once by pytest-benchmark) and registers the series
with the session reporter; the tables are printed in the terminal summary
and saved to ``benchmarks/results/figures.json`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.report import figure_to_dict, format_figure

_RESULTS = []


class FigureReporter:
    def add(self, result) -> None:
        _RESULTS.append(result)


@pytest.fixture(scope="session")
def figures():
    return FigureReporter()


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced figures (Mrec/s)")
    for result in _RESULTS:
        terminalreporter.write_line(format_figure(result))
        terminalreporter.write_line("")
    out_dir = Path(__file__).parent / "results"
    out_dir.mkdir(exist_ok=True)
    payload = [figure_to_dict(r) for r in _RESULTS]
    (out_dir / "figures.json").write_text(json.dumps(payload, indent=2))
    terminalreporter.write_line(f"series saved to {out_dir / 'figures.json'}")
