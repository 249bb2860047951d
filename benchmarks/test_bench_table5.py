"""Table 5: statistics for the derived cost models.

Paper's headline numbers (averages over G1–G3 x DB2/Oracle):

* multi-states: R^2 ~0.99, 37–69% very good, 62–90% good estimates;
* one-state (Static Approach 2): 13–35% very good, 40–62% good;
* static (Static Approach 1): excellent R^2 on its own static data but
  only ~1–18% good estimates on dynamic test queries.

Reproduction target: the ordering and the gaps, checked by
``shape_violations`` (empty list = every qualitative claim holds).
"""

from repro.experiments.table5 import render_table5, run_table5, shape_violations


def test_bench_table5(config):
    rows = run_table5(config)

    print()
    print(render_table5(rows))

    assert len(rows) == 18  # 2 profiles x 3 classes x 3 model types
    violations = shape_violations(rows)
    assert not violations, "\n".join(violations)

    # Aggregate margins, as in the paper's §5 summary: multi-states
    # improves very-good and good percentages by ~27 and ~20 points.
    multi = [r for r in rows if r.model_type == "multi-states"]
    one = [r for r in rows if r.model_type == "one-state"]
    avg = lambda rs, attr: sum(getattr(r, attr) for r in rs) / len(rs)
    very_good_gain = avg(multi, "pct_very_good") - avg(one, "pct_very_good")
    good_gain = avg(multi, "pct_good") - avg(one, "pct_good")
    print(
        f"\naverage gain of multi-states over one-state: "
        f"+{very_good_gain:.1f} pts very good (paper: +27.0), "
        f"+{good_gain:.1f} pts good (paper: +20.2)"
    )
    assert very_good_gain > 15.0
    assert good_gain > 10.0
