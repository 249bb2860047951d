"""Ablation: observed vs estimated probing costs (§3.3, eq. (2)).

Paper: "using the estimated costs of a probing query to determine system
contention states is usually more efficient.  However, estimation errors
may introduce certain inaccuracy."  Reproduction target: the eq. (2)
regression itself fits well, its parameter screen keeps a meaningful
subset, and the model validated with estimated probes loses only a
modest amount of accuracy versus observed probes.
"""

from repro.experiments.probing_estimation import (
    render_probing_estimation,
    run_probing_estimation,
)


def test_bench_probing_estimation(config):
    result = run_probing_estimation(config)

    print()
    print(render_probing_estimation(result))

    # eq. (2) captures the contention signal from system statistics.
    assert result.estimator_r_squared > 0.7
    assert 1 <= len(result.selected_parameters) <= 3

    observed = result.report_observed
    estimated = result.report_estimated
    # Estimation still yields a usable model...
    assert estimated.pct_good > 50.0
    # ...but never beats the observed-probe path by a wide margin, and
    # typically trails it (the paper's "certain inaccuracy").
    assert estimated.pct_good <= observed.pct_good + 10.0
    assert estimated.pct_very_good <= observed.pct_very_good + 10.0
