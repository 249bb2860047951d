"""End-to-end: better cost models => better global plans.

The paper's §1 motivation, closed as a loop: with two identically
configured sites whose loads move independently, the only way to pick
the right join site is to know each site's *current* contention state.
Multi-states models carry that signal (via the probing cost); one-state
models cannot.  Reproduction target: the multi-states optimizer picks
the truly cheaper plan more often and accumulates far less regret, and
its chosen plans land close to the per-round oracle.
"""

from repro.experiments.plan_quality import render_plan_quality, run_plan_quality


def test_bench_plan_quality(config):
    result = run_plan_quality(config, rounds=24)

    print()
    print(render_plan_quality(result))

    multi_regret = result.total_regret("multi-states")
    one_regret = result.total_regret("one-state")
    assert result.pct_optimal("multi-states") > result.pct_optimal("one-state")
    assert multi_regret < 0.5 * one_regret
    # Multi-states lands within 10% of the oracle's total.
    assert (
        result.total_chosen_seconds("multi-states")
        <= 1.10 * result.total_best_seconds
    )
    # Sanity: the experiment really had rounds where the sites disagreed.
    flips = {
        min(r.observed_by_site, key=r.observed_by_site.get) for r in result.rounds
    }
    assert flips == {"left", "right"}
