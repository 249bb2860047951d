"""The model-form race experiment: smoke ladder + referee scoring."""

import pytest

from repro import obs
from repro.experiments.config import tiny
from repro.experiments.model_race import (
    RACE_STRATEGIES,
    render_model_race,
    run_model_race,
    score_recovery,
)


@pytest.fixture(scope="module")
def race_result():
    return run_model_race(
        tiny(), calm_rounds=3, shifted_rounds=5, queries_per_round=2
    )


def test_traced_race_mints_one_trace_id_per_request():
    """The racers' front ends share one process and one span file, so
    each served request must root its own trace: no two strategies may
    mint the same id."""
    with obs.recording() as tracer:
        result = run_model_race(
            tiny(), calm_rounds=1, shifted_rounds=1, queries_per_round=2
        )
    roots = [
        span for span in tracer.finished()
        if span.name == "serving.request" and span.parent_id is None
    ]
    served = sum(run.requests for run in result.runs)
    assert len(roots) == served == 2 * 2 * len(RACE_STRATEGIES)
    assert len({span.trace_id for span in roots}) == served


class TestRaceLadder:
    def test_every_strategy_completes_cleanly(self, race_result):
        assert [run.strategy for run in race_result.runs] == list(RACE_STRATEGIES)
        expected = (3 + 5) * 2
        for run in race_result.runs:
            assert run.failed == 0
            assert run.requests == run.completed == expected
            assert len(run.rounds) == 8
            assert [r.phase for r in run.rounds] == ["calm"] * 3 + ["shifted"] * 5

    def test_scores_are_attached(self, race_result):
        for run in race_result.runs:
            assert run.score is not None
            assert run.score.shift_round == 3

    def test_online_forms_update_in_place(self, race_result):
        for run in race_result.runs:
            if run.strategy == "mlr.ols":
                assert run.online_updates == 0
            else:
                # Every served query on the modeled classes folds back in.
                assert run.online_updates > 0
                assert run.rebuilds == 0

    def test_render_is_deterministic_text(self, race_result):
        text = render_model_race(race_result)
        assert "Model-form race" in text
        for name in RACE_STRATEGIES:
            assert name in text
        assert render_model_race(race_result) == text


class TestRecoveryReferee:
    def entry(self, phase, good_pct, samples=6, queries=3):
        return {
            "phase": phase,
            "good_pct": good_pct,
            "samples": samples,
            "queries": queries,
        }

    def test_dip_and_recovery_counts_served_queries(self):
        timeline = [
            self.entry("calm", 90.0),
            self.entry("calm", 85.0),
            self.entry("shifted", 70.0),
            self.entry("shifted", 30.0),
            self.entry("shifted", 40.0),
            self.entry("shifted", 80.0),
        ]
        score = score_recovery(timeline)
        assert score.shift_round == 2
        assert score.degraded_round == 3
        assert score.recovered_round == 5
        assert score.calm_good_pct == pytest.approx(87.5)
        # Served queries from the shift through the recovery round.
        assert score.queries_to_recover == 4 * 3

    def test_never_dipping_scores_zero_queries(self):
        timeline = [
            self.entry("calm", 90.0),
            self.entry("shifted", 75.0),
            self.entry("shifted", 80.0),
        ]
        score = score_recovery(timeline)
        assert score.degraded_round is None
        assert score.recovered_round == 1
        assert score.queries_to_recover == 0

    def test_never_recovering_is_open_ended(self):
        timeline = [
            self.entry("calm", 90.0),
            self.entry("shifted", 20.0),
            self.entry("shifted", 10.0),
        ]
        score = score_recovery(timeline)
        assert score.degraded_round == 1
        assert score.recovered_round is None
        assert score.queries_to_recover is None

    def test_empty_sample_rounds_are_skipped(self):
        timeline = [
            self.entry("calm", 90.0),
            self.entry("shifted", 0.0, samples=0),
            self.entry("shifted", 20.0),
            self.entry("shifted", 90.0),
        ]
        score = score_recovery(timeline)
        assert score.degraded_round == 2
        assert score.recovered_round == 3
