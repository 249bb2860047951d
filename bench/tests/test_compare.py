"""--compare: ok, unresolved (spread wider than the bound), diagnostic, breach."""

from __future__ import annotations

import pytest

from bench import compare as compare_module
from bench.compare import compare
from bench.spec import EndToEnd

METRICS = (
    EndToEnd("ops_per_s", "op/s", "higher", 0.10, ""),
    EndToEnd("op_p50_ms", "ms", "lower", 0.10, "", demoted=True),
    EndToEnd("sim_cost_s_per_op", "sim-s", "lower", 0.001, ""),
    EndToEnd("est_good_pct", "%", "higher", 0.1, "", absolute=True),
    EndToEnd("fail_frac", "ratio", "lower", 0.0, "", absolute=True),
)


@pytest.fixture(autouse=True)
def _metrics(monkeypatch):
    monkeypatch.setattr(compare_module, "END_TO_END", METRICS)


def _workload(ops, q1, q3, sim=1.5, good=90.0, hits=600, p50=1.0):
    return {
        "end_to_end": {
            "ops_per_s": {"value": ops, "q1": q1, "q3": q3, "n": 5},
            "op_p50_ms": {"value": p50, "q1": p50, "q3": p50, "n": 3000},
            "sim_cost_s_per_op": {"value": sim},
            "est_good_pct": None if good is None else {"value": good},
            "fail_frac": {"value": 0.0},
        },
        "counts": {"plan_cache": hits, "join_site_a": 10},
    }


def _run(ops: float, q1: float, q3: float, **facts):
    return {"workloads": {"serve_hot": _workload(ops, q1, q3, **facts)}}


def _verdicts(a, b):
    rows, breach = compare(a, b)
    return {row[1]: row[-1] for row in rows}, breach


def test_same_numbers_are_ok():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010))
    assert not breach
    assert verdicts.pop("bench.op_p50_ms") == "diagnostic"
    assert set(verdicts.values()) == {"ok"}
    assert {"counts.plan_cache", "counts.join_site_a"} <= set(verdicts)


def test_a_slowdown_beyond_the_bound_is_a_breach():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(850, 845, 855))
    assert breach and verdicts["ops_per_s"] == "BREACH"
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(950, 945, 955))
    assert not breach and verdicts["ops_per_s"] == "ok"


def test_a_speed_up_is_ok():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1300, 1290, 1310))
    assert not breach and verdicts["ops_per_s"] == "ok"


def test_a_wide_spread_is_unresolved_not_unchanged():
    verdicts, breach = _verdicts(_run(1000, 900, 1100), _run(980, 975, 985))
    assert not breach and verdicts["ops_per_s"] == "unresolved"


def test_a_wide_spread_does_not_excuse_a_breach():
    verdicts, breach = _verdicts(_run(1000, 850, 1150), _run(700, 695, 705))
    assert breach and verdicts["ops_per_s"] == "BREACH"


def test_a_demoted_metric_is_a_diagnostic_and_never_gates():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010, p50=1.5))
    assert not breach and verdicts["bench.op_p50_ms"] == "diagnostic"
    assert "op_p50_ms" not in verdicts


def test_deterministic_metrics_compare_almost_exactly():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010, sim=1.51))
    assert breach and verdicts["sim_cost_s_per_op"] == "BREACH"
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010, good=89.8))
    assert breach and verdicts["est_good_pct"] == "BREACH"
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010, good=89.95))
    assert not breach


def test_counts_must_be_equal():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010, hits=599))
    assert breach and verdicts["counts.plan_cache"] == "BREACH"
    assert verdicts["counts.join_site_a"] == "ok"
    b = _run(1000, 990, 1010)
    del b["workloads"]["serve_hot"]["counts"]["join_site_a"]
    verdicts, breach = _verdicts(_run(1000, 990, 1010), b)
    assert breach and verdicts["counts.join_site_a"] == "BREACH"


def test_a_metric_that_disappears_is_a_breach():
    verdicts, breach = _verdicts(_run(1000, 990, 1010), _run(1000, 990, 1010, good=None))
    assert breach and verdicts["est_good_pct"] == "BREACH"


def test_a_workload_missing_on_either_side_is_a_breach():
    one, two = _run(1000, 990, 1010), _run(1000, 990, 1010)
    two["workloads"]["fleet"] = _workload(100, 99, 101)
    for a, b in ((one, two), (two, one)):
        rows, breach = compare(a, b)
        assert breach
        assert [row[-1] for row in rows if row[0] == "fleet"] == ["BREACH"]
        assert "BREACH" not in {row[-1] for row in rows if row[0] == "serve_hot"}
