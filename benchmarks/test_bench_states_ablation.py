"""State-count ablation (§5, observation 4).

Paper: R^2 for the G2/Oracle model with 1..6 states was
0.7788, 0.9636, 0.9674, 0.9899, 0.9922 — large early gains, tiny late
ones.  Reproduction target: a monotone (up to noise), saturating R^2
curve where the first split buys more than all later splits combined.
"""

from repro.experiments.states_ablation import (
    render_states_ablation,
    run_states_ablation,
)


def test_bench_states_ablation(config):
    result = run_states_ablation(config, max_states=6)

    print()
    print(render_states_ablation(result))
    print("paper (G2/Oracle): 0.7788 0.9636 0.9674 0.9899 0.9922")

    r2 = result.r_squared_series
    see = [p.standard_error for p in result.points]
    assert len(r2) == 6
    # Broad improvement from 1 state to 6.
    assert r2[-1] > r2[0] + 0.15
    assert see[-1] < see[0]
    # Saturation: the 1->2 jump dominates the 5->6 jump.
    assert (r2[1] - r2[0]) > 3 * max(0.0, r2[5] - r2[4])
    # Weak monotonicity (allow tiny numerical dips).
    for a, b in zip(r2, r2[1:]):
        assert b >= a - 0.02
