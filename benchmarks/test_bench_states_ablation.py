"""State-count ablation (§5, observation 4).

Paper: R^2 for the G2/Oracle model with 1..6 states was
0.7788, 0.9636, 0.9674, 0.9899, 0.9922 — large early gains, tiny late
ones.  Reproduction target: a monotone (up to noise), saturating R^2
curve where the first split buys more than all later splits combined.
"""

from repro.experiments.states_ablation import (
    render_states_ablation,
    run_states_ablation,
    states_ablation_violations,
)


def test_bench_states_ablation(config):
    result = run_states_ablation(config, max_states=6)

    print()
    print(render_states_ablation(result))
    print("paper (G2/Oracle): 0.7788 0.9636 0.9674 0.9899 0.9922")

    assert len(result.r_squared_series) == 6
    # Broad improvement from 1 state to 6 (R2 up 0.15, SEE down),
    # saturation (the 1->2 jump is over 3x the 5->6 jump) and weak
    # monotonicity (dips of at most 0.02).
    violations = states_ablation_violations(result)
    assert not violations, "\n".join(violations)
