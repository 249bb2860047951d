"""Table 6: IUPMA vs ICMA in a clustered-contention environment.

Paper (for one G2-class example): IUPMA R^2 0.978 with 58% very good /
82% good estimates; ICMA R^2 0.991 with 82% / 95% — the clustering-based
partition wins when the contention level is clustered.  Reproduction
target: ICMA >= IUPMA on R^2 and on the good-estimate percentage.
"""

from repro.experiments.table6 import render_table6, run_table6, table6_violations


def test_bench_table6(config):
    result = run_table6(config)

    print()
    print(render_table6(result))

    # ICMA >= IUPMA (R2 within 0.01, %good, %very-good within 5), both
    # F-significant, and a small number of states (paper: 3).
    violations = table6_violations(result)
    assert not violations, "\n".join(violations)
