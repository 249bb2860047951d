"""Unit tests for multicollinearity diagnostics (VIF)."""

import numpy as np
import pytest

from repro.mlr.diagnostics import (
    max_state_vif,
    variance_inflation_factor,
)


def correlated_design(rho: float, n: int = 200, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0, 1, n)
    x2 = rho * x1 + np.sqrt(1 - rho**2) * rng.normal(0, 1, n)
    return np.column_stack([x1, x2])


class TestVIF:
    def test_independent_columns_have_vif_near_one(self):
        X = correlated_design(0.0)
        for column in range(X.shape[1]):
            assert variance_inflation_factor(X, column) == pytest.approx(1.0, abs=0.1)

    def test_vif_formula_for_known_correlation(self):
        rho = 0.9
        X = correlated_design(rho, n=5000)
        expected = 1.0 / (1.0 - rho**2)
        assert variance_inflation_factor(X, 0) == pytest.approx(expected, rel=0.15)

    def test_exact_collinearity_is_infinite(self):
        x = np.arange(10.0)
        X = np.column_stack([x, 2 * x])
        assert variance_inflation_factor(X, 0) == float("inf")

    def test_constant_column_is_infinite(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        assert variance_inflation_factor(X, 0) == float("inf")

    def test_single_column_is_one(self):
        assert variance_inflation_factor(np.arange(10.0).reshape(-1, 1), 0) == 1.0

    def test_column_index_checked(self):
        with pytest.raises(IndexError):
            variance_inflation_factor(correlated_design(0.5), 5)


class TestPerStateVIF:
    def test_collinearity_in_one_state_detected(self):
        rng = np.random.default_rng(2)
        # State 0: independent; state 1: perfectly collinear.
        x1_a = rng.normal(0, 1, 50)
        x2_a = rng.normal(0, 1, 50)
        x1_b = rng.normal(0, 1, 50)
        X = np.column_stack(
            [np.concatenate([x1_a, x1_b]), np.concatenate([x2_a, 3 * x1_b])]
        )
        states = [0] * 50 + [1] * 50
        assert max_state_vif(X, states, 2, 0) == float("inf")

    def test_small_states_skipped(self):
        X = correlated_design(0.99, n=4)
        # With 2 states of 2 rows each there is nothing to regress.
        assert max_state_vif(X, [0, 0, 1, 1], 2, 0) == 1.0

    def test_state_length_checked(self):
        with pytest.raises(ValueError):
            max_state_vif(correlated_design(0.5), [0, 1], 2, 0)
