"""Table 6: IUPMA vs ICMA in a clustered-contention environment.

Paper (for one G2-class example): IUPMA R^2 0.978 with 58% very good /
82% good estimates; ICMA R^2 0.991 with 82% / 95% — the clustering-based
partition wins when the contention level is clustered.  Reproduction
target: ICMA >= IUPMA on R^2 and on the good-estimate percentage.
"""

from repro.experiments.table6 import render_table6, run_table6


def test_bench_table6(config):
    result = run_table6(config)

    print()
    print(render_table6(result))

    iupma = result.row("IUPMA")
    icma = result.row("ICMA")
    assert icma.report.r_squared >= iupma.report.r_squared - 0.01
    assert icma.report.pct_good >= iupma.report.pct_good
    assert icma.report.pct_very_good >= iupma.report.pct_very_good - 5.0
    # Both algorithms still produce usable models.
    assert iupma.report.f_significant and icma.report.f_significant
    # A small number of states suffices (paper: 3).
    assert 2 <= icma.num_states <= 6
