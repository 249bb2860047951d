"""Figure 1: query cost vs number of concurrent processes.

Paper: the same query's elapsed time climbs from 3.80 s to 124.02 s as
the process count sweeps ~50 -> ~130 (a ~33x, superlinear swing).
Reproduction target: monotone, superlinear growth with a swing of the
same order (absolute costs differ — simulated engine, scaled tables).
"""

from repro.experiments.figure1 import FIGURE1_SQL, run_figure1
from repro.experiments.report import format_series


def test_bench_figure1(config):
    result = run_figure1(config, num_points=9, repeats=3)

    print()
    print(f"query: {FIGURE1_SQL}")
    print(
        format_series(
            [float(p) for p in result.process_counts],
            {"cost_seconds": result.costs},
            x_label="concurrent_processes",
            title="Figure 1: effect of dynamic factor on query cost",
        )
    )
    print(f"swing: {result.swing:.1f}x (paper: ~33x)")

    # Monotone growth across the sweep.
    assert result.costs == sorted(result.costs)
    # Superlinear: the top half of the sweep gains more than the bottom half.
    mid = len(result.costs) // 2
    assert (result.costs[-1] - result.costs[mid]) > (
        result.costs[mid] - result.costs[0]
    )
    # Same order of swing as the paper's ~33x.
    assert 10.0 <= result.swing <= 100.0
