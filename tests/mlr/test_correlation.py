"""Unit tests for simple and per-state correlation coefficients."""

import numpy as np
import pytest

from repro.mlr.correlation import (
    average_abs_state_correlation,
    per_state_correlations,
    simple_correlation,
)


class TestSimpleCorrelation:
    def test_perfect_positive(self):
        x = [1, 2, 3, 4]
        assert simple_correlation(x, [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = [1, 2, 3, 4]
        assert simple_correlation(x, [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 100)
        y = 0.5 * x + rng.normal(0, 1, 100)
        assert simple_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_constant_input_gives_zero(self):
        assert simple_correlation([1, 1, 1], [1, 2, 3]) == 0.0
        assert simple_correlation([1, 2, 3], [5, 5, 5]) == 0.0

    def test_too_few_points_gives_zero(self):
        assert simple_correlation([1], [2]) == 0.0
        assert simple_correlation([], []) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simple_correlation([1, 2], [1, 2, 3])

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(0, 1, 10)
            r = simple_correlation(x, 3 * x)
            assert -1.0 <= r <= 1.0


class TestPerStateCorrelations:
    def test_computed_within_each_state(self):
        # State 0: y = x (r=1); state 1: y = -x (r=-1).
        x = [1, 2, 3, 1, 2, 3]
        y = [1, 2, 3, 3, 2, 1]
        states = [0, 0, 0, 1, 1, 1]
        rs = per_state_correlations(x, y, states, 2)
        assert rs[0] == pytest.approx(1.0)
        assert rs[1] == pytest.approx(-1.0)

    def test_empty_state_reports_zero(self):
        rs = per_state_correlations([1, 2], [1, 2], [0, 0], 3)
        assert rs == [pytest.approx(1.0), 0.0, 0.0]

    def test_average_abs(self):
        x = [1, 2, 3, 5, 5, 5]
        y = [1, 2, 3, 1, 2, 3]
        states = [0, 0, 0, 1, 1, 1]
        # State 0 r=1, state 1 r=0 (constant x) -> average 0.5.
        assert average_abs_state_correlation(x, y, states, 2) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            per_state_correlations([1, 2], [1, 2], [0], 1)
