"""Figure 10: histogram of the contention level in the clustered case.

Paper: the sampled contention level (gauged by probing cost) piles up in
a few clusters rather than spreading uniformly.  Reproduction target: a
strongly non-uniform histogram — a chi-squared statistic against the
uniform distribution far above the uniform expectation, with multiple
separated modes.
"""

import numpy as np

from repro.experiments.table6 import render_figure10, run_table6


def test_bench_figure10(config):
    result = run_table6(config)

    print()
    print(render_figure10(result, bins=16))

    probing = np.asarray(result.probing_costs)
    counts, _ = np.histogram(probing, bins=12)
    expected = len(probing) / len(counts)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    print(f"chi-squared vs uniform: {chi2:.0f} (df={len(counts) - 1})")

    # Far from uniform (99.9% critical value for df=11 is ~31.3).
    assert chi2 > 40.0
    # At least two separated modes: some interior bins are (nearly) empty
    # while others are heavily populated.
    assert counts.max() > 4 * max(1.0, counts.min() + 1)
    interior = counts[1:-1]
    assert (interior <= expected / 4).any()
