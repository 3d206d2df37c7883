"""The paper's figures and design-choice ablations, one case per figure id.

Each case regenerates one series of ``repro.bench.FIGURES`` (Figures 8-21
plus the consolidation and dispatch ablations) through the discrete-event
cluster harness: ``pytest benchmarks/bench_figures.py -k fig13``. Timing
of the whole figure run is captured once by pytest-benchmark; the series
themselves are printed in the terminal summary and saved under
``benchmarks/results/``.
"""

import pytest

from repro.bench import FIGURES, run_figure


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_figure(benchmark, figures, fig_id):
    result = benchmark.pedantic(lambda: run_figure(fig_id), rounds=1, iterations=1)
    figures.add(result)
    assert result.results, "figure produced no datapoints"
    assert all(pr.result.records_acked > 0 for pr in result.results)
