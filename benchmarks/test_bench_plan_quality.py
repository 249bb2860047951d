"""End-to-end: better cost models => better global plans.

The paper's §1 motivation, closed as a loop: with two identically
configured sites whose loads move independently, the only way to pick
the right join site is to know each site's *current* contention state.
Multi-states models carry that signal (via the probing cost); one-state
models cannot.  Reproduction target: the multi-states optimizer picks
the truly cheaper plan more often and accumulates far less regret, and
its chosen plans land close to the per-round oracle.
"""

from repro.experiments.plan_quality import (
    plan_quality_violations,
    render_plan_quality,
    run_plan_quality,
)


def test_bench_plan_quality(config):
    result = run_plan_quality(config, rounds=24)

    print()
    print(render_plan_quality(result))

    # Multi-states picks the optimal plan more often, with under half the
    # one-state regret, lands within 10% of the oracle's total, and the
    # rounds really had both sites as the cheaper one.
    violations = plan_quality_violations(result)
    assert not violations, "\n".join(violations)
