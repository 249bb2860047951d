"""Ablation: Proposition 4.1's sample-size rule.

The paper samples 10 observations per parameter.  Reproduction target:
model quality (here %good on a fixed test set) climbs steeply while
undersampled and flattens out — by the time the sample is
Prop.-4.1-sized, nearly all the achievable accuracy is in hand.
"""

from repro.experiments.sample_size_ablation import (
    render_sample_size_ablation,
    run_sample_size_ablation,
    sample_size_violations,
)


def test_bench_sample_size(config):
    result = run_sample_size_ablation(config)

    print()
    print(render_sample_size_ablation(result))

    # Undersampling hurts (fewer states, lower %good), the last doubling
    # of the sample buys little compared to the first, and a
    # Prop.-4.1-sized sample achieves within 10 points of the largest.
    violations = sample_size_violations(result)
    assert not violations, "\n".join(violations)
