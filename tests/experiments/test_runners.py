"""Smoke tests for the experiment runners (small configurations).

``benchmarks/`` asserts the paper's shapes on the full quick-preset
experiments; here we only check that each runner produces structurally
correct output and the headline shape holds, using deliberately tiny
sample sizes — plus the quick preset where the assertion is the same
one, so it lives in one place.
"""

import pytest

from repro.core.classification import G1
from repro.engine.profiles import ORACLE_LIKE
from repro.experiments.config import quick, tiny
from repro.experiments.figure1 import run_figure1
from repro.experiments.figures4_9 import FIGURE_LAYOUT, run_figure, tracking_error
from repro.experiments.harness import run_class_experiment
from repro.experiments.model_forms import run_model_forms
from repro.experiments.states_ablation import run_states_ablation
from repro.experiments.table5 import render_table5, run_table5, shape_violations
from repro.experiments.table6 import run_table6

TINY = tiny(seed=13)


class TestFigure1:
    def test_monotone_superlinear_sweep(self):
        result = run_figure1(TINY, num_points=5, repeats=2)
        assert result.costs == sorted(result.costs)
        assert result.swing > 10.0
        assert result.process_counts[0] == 50
        assert result.process_counts[-1] == 130


class TestClassExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_class_experiment(ORACLE_LIKE, G1, TINY)

    def test_three_models_produced(self, result):
        assert result.multi.model.num_states >= 2
        assert result.one_state.model.num_states == 1
        assert result.static.model.num_states == 1

    def test_multi_beats_one_state(self, result):
        assert result.report_multi.pct_good > result.report_one_state.pct_good

    def test_static_collapses_in_dynamic_env(self, result):
        assert result.report_static.pct_good < 40.0

    def test_points_sorted_by_result_size(self, result):
        xs = [p.result_tuples for p in result.test_points]
        assert xs == sorted(xs)
        assert len(result.test_points) == TINY.test_count


class TestStatesAblation:
    def test_r2_saturating_curve(self):
        result = run_states_ablation(TINY, max_states=5)
        r2 = result.r_squared_series
        assert len(r2) == 5
        assert r2[-1] > r2[0] + 0.1
        # Early gains dominate late gains (saturation).
        assert (r2[1] - r2[0]) > (r2[4] - r2[3])


class TestModelForms:
    def test_general_form_wins(self):
        from repro.core.qualitative import ModelForm

        # Tiny, and the quick preset benchmarks/ checks the rest of the
        # ordering at (one test id: a loop, not a parametrize).
        for config in (TINY, quick(seed=7)):
            result = run_model_forms(config)
            general = result.result_for(ModelForm.GENERAL)
            coincident = result.result_for(ModelForm.COINCIDENT)
            assert general.r_squared > coincident.r_squared, config
            assert general.standard_error < coincident.standard_error, config


class TestFigureRunners:
    def test_figure_layout_covers_4_to_9(self):
        assert sorted(FIGURE_LAYOUT) == [4, 5, 6, 7, 8, 9]

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure(3, TINY)

    def test_tracking_error_zero_for_perfect(self):
        assert tracking_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert tracking_error([1.0, 2.0], [2.0, 4.0]) > 0.0


class TestTable5:
    def test_rows_and_shape(self):
        rows = run_table5(TINY, profiles=(ORACLE_LIKE,), classes=(G1,))
        assert len(rows) == 3  # three model types
        assert not shape_violations(rows)
        assert "Table 5" in render_table5(rows)


class TestTable6:
    def test_icma_at_least_as_good(self):
        result = run_table6(TINY)
        iupma = result.row("IUPMA")
        icma = result.row("ICMA")
        assert icma.report.pct_good >= iupma.report.pct_good - 5.0
        assert len(result.probing_costs) == TINY.train_count("unary")


class TestPlanQuality:
    def test_multi_states_dominates_one_state(self):
        from repro.experiments.plan_quality import run_plan_quality

        result = run_plan_quality(TINY, rounds=10, gap_seconds=600.0)
        assert len(result.rounds) == 10
        assert result.total_regret("multi-states") <= result.total_regret("one-state")
        # Every round's observed costs cover both candidate join sites.
        for r in result.rounds:
            assert set(r.observed_by_site) == {"left", "right"}
            assert set(r.chosen) == {"multi-states", "one-state"}


class TestProbeCacheQuality:
    def test_cache_cuts_probes_without_losing_every_plan(self):
        from repro.experiments.plan_quality import (
            render_probe_cache_quality,
            run_probe_cache_quality,
        )

        result = run_probe_cache_quality(
            TINY, rounds=8, gap_seconds=900.0, ttl=1800.0
        )
        assert len(result.rounds) == 8
        for r in result.rounds:
            assert set(r.chosen) == {"fresh-probe", "cached-probe"}
        fresh = result.probes_by_approach["fresh-probe"]
        cached = result.probes_by_approach["cached-probe"]
        # Fresh probes every optimization; the cache serves some rounds
        # from a reading taken within the TTL.
        assert fresh == 2 * len(result.rounds)
        assert 0 < cached < fresh
        rendered = render_probe_cache_quality(result)
        assert "probes executed" in rendered
        assert "cached-probe" in rendered


class TestSampleSizeAblation:
    def test_points_for_each_requested_size(self):
        from repro.experiments.sample_size_ablation import run_sample_size_ablation

        result = run_sample_size_ablation(TINY, sizes=(30, 60, 90))
        assert [p.sample_size for p in result.points] == [30, 60, 90]
        assert result.recommended > 0


class TestHarnessCache:
    def test_cached_class_experiment_memoizes_and_counts(self):
        from repro import obs
        from repro.experiments.harness import (
            cache_stats,
            cache_summary,
            cached_class_experiment,
        )

        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        hits, misses = cache_stats()
        try:
            # Seeds no other test uses: the memo is process-wide.
            a = cached_class_experiment(ORACLE_LIKE, G1, TINY.with_seed(98))
            b = cached_class_experiment(ORACLE_LIKE, G1, TINY.with_seed(98))
            assert a is b
            different = cached_class_experiment(ORACLE_LIKE, G1, TINY.with_seed(99))
            assert different is not a
            # Cache behaviour is no longer silent: 1 hit, 2 misses.
            assert cache_stats() == (hits + 1, misses + 2)
            line = cache_summary()
            assert f"{hits + 1} hits / {misses + 2} misses" in line
            assert f"{hits + misses + 3} lookups" in line
        finally:
            obs.set_registry(previous)
