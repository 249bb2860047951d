"""Unit and property tests for equi-depth histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.histogram import EquiDepthHistogram
from repro.engine.predicate import Comparison
from repro.engine.schema import ColumnStatistics, TableStatistics


class TestConstruction:
    def test_buckets_roughly_equal_depth(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 100, 1000)
        hist = EquiDepthHistogram.build(values, num_buckets=10)
        assert hist.num_buckets == 10
        assert hist.total_rows == 1000
        assert max(hist.counts) <= 2 * min(hist.counts)

    def test_duplicates_not_split_across_buckets(self):
        values = [1.0] * 50 + [2.0] * 50
        hist = EquiDepthHistogram.build(values, num_buckets=4)
        # Each run of duplicates lives in exactly one bucket.
        assert hist.total_rows == 100
        for count, d in zip(hist.counts, hist.distinct):
            assert d <= 2

    def test_fewer_values_than_buckets(self):
        hist = EquiDepthHistogram.build([3.0, 1.0], num_buckets=16)
        assert hist.num_buckets <= 2
        assert hist.total_rows == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram.build([], 4)

    def test_invalid_bucket_count_rejected(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram.build([1.0], 0)

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram((0.0, 1.0), (5, 5), (1, 1))  # boundary count
        with pytest.raises(ValueError):
            EquiDepthHistogram((1.0, 0.0, 2.0), (5, 5), (1, 1))  # unsorted


class TestEstimation:
    @pytest.fixture
    def skewed(self):
        # 90% of the mass below 10, the rest spread to 1000.
        rng = np.random.default_rng(2)
        values = np.concatenate(
            [rng.uniform(0, 10, 900), rng.uniform(10, 1000, 100)]
        )
        return values, EquiDepthHistogram.build(values, num_buckets=20)

    def test_estimate_le_tracks_truth_on_skew(self, skewed):
        values, hist = skewed
        for cut in (5.0, 10.0, 100.0, 500.0):
            truth = float(np.mean(values <= cut))
            assert hist.estimate_le(cut) == pytest.approx(truth, abs=0.05)

    def test_uniform_assumption_fails_where_histogram_succeeds(self, skewed):
        values, hist = skewed
        truth = float(np.mean(values <= 10.0))  # ~0.9
        uniform_guess = 10.0 / float(values.max())  # ~0.01
        assert abs(hist.estimate_le(10.0) - truth) < 0.05
        assert abs(uniform_guess - truth) > 0.5

    def test_le_bounds(self, skewed):
        _, hist = skewed
        assert hist.estimate_le(-1.0) == 0.0
        assert hist.estimate_le(10_000.0) == 1.0

    def test_le_monotone(self, skewed):
        _, hist = skewed
        points = np.linspace(-5, 1100, 60)
        estimates = [hist.estimate_le(p) for p in points]
        assert estimates == sorted(estimates)

    def test_eq_estimate_on_duplicates(self):
        # A run of duplicates dominating the column: since runs are never
        # split, the run's bucket has distinct=1 and eq is exact.
        values = [5.0] * 500 + [float(v) for v in range(1000, 1500)]
        hist = EquiDepthHistogram.build(values, num_buckets=10)
        assert hist.estimate_eq(5.0) == pytest.approx(0.5, abs=0.01)

    def test_eq_outside_range_is_zero(self, skewed):
        _, hist = skewed
        assert hist.estimate_eq(-3.0) == 0.0


class TestPredicateIntegration:
    def make_stats(self, values, build=True):
        stats = TableStatistics(cardinality=len(values))
        stats.columns["a"] = ColumnStatistics.from_values(
            values, build_histogram=build
        )
        return stats

    def test_selectivity_uses_histogram_when_present(self):
        values = [1] * 900 + list(range(2, 102))
        with_hist = self.make_stats(values, build=True)
        without = self.make_stats(values, build=False)
        truth = 900 / 1000
        sel_hist = Comparison("a", "<=", 1).selectivity(with_hist)
        sel_uniform = Comparison("a", "<=", 1).selectivity(without)
        assert sel_hist == pytest.approx(truth, abs=0.05)
        assert abs(sel_uniform - truth) > 0.3

    def test_all_operators_stay_in_unit_interval(self):
        rng = np.random.default_rng(3)
        stats = self.make_stats(list(rng.integers(0, 100, 500)))
        for op in ("=", "!=", "<", "<=", ">", ">="):
            s = Comparison("a", op, 30).selectivity(stats)
            assert 0.0 <= s <= 1.0

    def test_complementarity(self):
        rng = np.random.default_rng(4)
        stats = self.make_stats(list(rng.integers(0, 1000, 800)))
        below = Comparison("a", "<", 300).selectivity(stats)
        at_or_above = Comparison("a", ">=", 300).selectivity(stats)
        assert below + at_or_above == pytest.approx(1.0, abs=0.02)

    def test_string_columns_skip_histogram(self):
        stats = TableStatistics(cardinality=3)
        stats.columns["a"] = ColumnStatistics.from_values(
            ["x", "y", "z"], build_histogram=True
        )
        assert stats.columns["a"].histogram is None


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-1000, 1000, allow_nan=False), min_size=1, max_size=300),
    buckets=st.integers(1, 20),
    cut=st.floats(-1200, 1200, allow_nan=False),
)
def test_property_estimate_le_close_to_truth(values, buckets, cut):
    """The equi-depth estimate of P(X <= c) errs by at most ~1.5 buckets."""
    hist = EquiDepthHistogram.build(values, num_buckets=buckets)
    truth = sum(1 for v in values if v <= cut) / len(values)
    # The error is bounded by the heaviest bucket's mass (duplicates make
    # buckets unequal, so 1/num_buckets is not the right yardstick).
    tolerance = 1.5 * max(hist.counts) / hist.total_rows + 1e-9
    assert abs(hist.estimate_le(cut) - truth) <= max(tolerance, 0.08)
