"""Figures 4–9: observed vs estimated costs for test queries.

Paper: six plots (G1/G2/G3 x DB2/Oracle) of test queries sorted by
result size; the multi-states estimates track the observed scatter while
the one-state estimates form a single compromise curve.  Reproduction
target: the multi-states series' normalized RMS tracking error is well
below the one-state series' on every figure.
"""

import pytest

from repro.experiments.figures4_9 import (
    FIGURE_LAYOUT,
    render_figure,
    run_figure,
    tracking_error,
)


@pytest.mark.parametrize("figure_number", sorted(FIGURE_LAYOUT))
def test_bench_figure(config, figure_number):
    figure = run_figure(figure_number, config)

    print()
    print(render_figure(figure, max_rows=12))
    series = figure.series()
    err_multi = tracking_error(series["observed"], series["multi_states"])
    err_one = tracking_error(series["observed"], series["one_state"])
    print(
        f"normalized RMS tracking error: multi-states {err_multi:.3f} "
        f"vs one-state {err_one:.3f}"
    )

    assert len(figure.points) == config.test_count
    assert err_multi < err_one, (
        f"figure {figure_number}: multi-states does not track better "
        f"({err_multi:.3f} vs {err_one:.3f})"
    )
    # The one-state compromise curve misses badly; multi-states stays tight.
    assert err_multi < 0.75
