"""Property-based tests for the regression substrate (hypothesis).

:func:`repro.mlr.ols.fit_ols` is checked against
``numpy.linalg.lstsq`` on random well-conditioned systems — same
coefficients, consistent fitted values/residuals, sane statistics — and
on rank-deficient systems, where it must return the same minimum-norm
solution.  The diagnostics layer's rank-deficiency *rejection* behaviour
is checked too: exactly collinear columns must be flagged with infinite
VIF, in every state, so the selection screen's VIF limit excludes them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mlr.diagnostics import (
    DEFAULT_VIF_LIMIT,
    max_state_vifs,
    variance_inflation_factor,
)
from repro.mlr.linalg import add_intercept
from repro.mlr.ols import fit_ols

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _random_system(seed: int, n: int, p: int, noise: float = 0.25):
    """A random regression system with an intercept column."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    beta = rng.normal(scale=3.0, size=p + 1)
    y = X @ beta + rng.normal(scale=noise, size=n)
    return X, y


class TestOLSAgainstLstsq:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(8, 60), p=st.integers(1, 5))
    def test_matches_lstsq_on_well_conditioned_systems(self, seed, n, p):
        assume(n >= p + 3)
        X, y = _random_system(seed, n, p)
        assume(np.linalg.cond(X) < 1e6)
        result = fit_ols(X, y)
        expected, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        assert rank == p + 1
        np.testing.assert_allclose(result.coefficients, expected, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(result.fitted, X @ expected, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(
            result.residuals, y - X @ expected, rtol=1e-6, atol=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(8, 60), p=st.integers(1, 5))
    def test_statistics_are_coherent(self, seed, n, p):
        assume(n >= p + 3)
        X, y = _random_system(seed, n, p)
        assume(np.linalg.cond(X) < 1e6)
        result = fit_ols(X, y)
        assert 0.0 <= result.r_squared <= 1.0
        assert result.standard_error >= 0.0
        assert result.degrees_of_freedom == n - (p + 1)
        # SEE is exactly sqrt(SSE / df) — the paper's eq. (3).
        expected_see = np.sqrt(result.sse / result.degrees_of_freedom)
        np.testing.assert_allclose(result.standard_error, expected_see, rtol=1e-9)
        if result.f_pvalue is not None:
            assert 0.0 <= result.f_pvalue <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(10, 50), p=st.integers(1, 4))
    def test_rank_deficient_returns_minimum_norm_solution(self, seed, n, p):
        """A duplicated column makes X rank-deficient; fit_ols must agree
        with lstsq's pseudo-inverse (minimum-norm) solution, not raise."""
        X, y = _random_system(seed, n, p)
        X = np.column_stack([X, X[:, -1]])  # exact copy -> rank deficiency
        result = fit_ols(X, y)
        expected, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        assert rank < X.shape[1]
        np.testing.assert_allclose(result.coefficients, expected, rtol=1e-6, atol=1e-8)

    def test_more_parameters_than_observations_rejected(self):
        X = np.ones((3, 5))
        with pytest.raises(ValueError):
            fit_ols(X, np.zeros(3))


class TestVIFProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, n=st.integers(12, 60), p=st.integers(2, 5))
    def test_vif_at_least_one_on_random_designs(self, seed, n, p):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        for column in range(p):
            assert variance_inflation_factor(X, column) >= 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(12, 60), p=st.integers(1, 4))
    def test_exact_collinearity_is_flagged_and_rejected(self, seed, n, p):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        X = np.column_stack([X, X @ rng.normal(size=p)])  # exact combination
        assert variance_inflation_factor(X, X.shape[1] - 1) == float("inf")
        states = np.zeros(n, dtype=int)
        assert max_state_vifs(X, states, num_states=1)[-1] > DEFAULT_VIF_LIMIT

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, n=st.integers(20, 60), p=st.integers(2, 4))
    def test_vif_matches_auxiliary_r2_definition(self, seed, n, p):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        column = 0
        vif = variance_inflation_factor(X, column)
        others = np.delete(X, column, axis=1)
        r2 = fit_ols(add_intercept(others), X[:, column]).r_squared
        assume(r2 < 1.0 - 1e-9)
        np.testing.assert_allclose(vif, 1.0 / (1.0 - r2), rtol=1e-8)
