"""Ablation: Proposition 4.1's sample-size rule.

The paper samples 10 observations per parameter.  Reproduction target:
model quality (here %good on a fixed test set) climbs steeply while
undersampled and flattens out — by the time the sample is
Prop.-4.1-sized, nearly all the achievable accuracy is in hand.
"""

from repro.experiments.sample_size_ablation import (
    render_sample_size_ablation,
    run_sample_size_ablation,
)


def test_bench_sample_size(config):
    result = run_sample_size_ablation(config)

    print()
    print(render_sample_size_ablation(result))

    by_size = {p.sample_size: p for p in result.points}
    sizes = sorted(by_size)
    smallest = by_size[sizes[0]]
    largest = by_size[sizes[-1]]

    # Undersampling hurts: the smallest sample's model cannot support
    # many states and scores clearly below the largest.
    assert smallest.num_states <= largest.num_states
    assert largest.report.pct_good >= smallest.report.pct_good

    # Diminishing returns near the recommendation: the last doubling of
    # the sample buys little compared to the first.
    early_gain = by_size[sizes[2]].report.pct_good - smallest.report.pct_good
    late_gain = largest.report.pct_good - by_size[sizes[3]].report.pct_good
    assert early_gain >= late_gain - 5.0

    # A Prop.-4.1-sized sample achieves within 10 points of the largest.
    near = result.nearest_to_recommended()
    assert near.report.pct_good >= largest.report.pct_good - 10.0
