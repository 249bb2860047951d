"""Property-based tests for the online estimators (hypothesis).

The headline law: streaming rows one at a time through
:class:`~repro.mlr.rls.RecursiveLeastSquares` with no forgetting
converges to the batch :func:`repro.mlr.ols.fit_ols` coefficients —
including on rank-deficient designs (same fitted values) and the
single-parameter edge case.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.core.strategy import RLSStrategy, resolve_strategy
from repro.mlr.ols import fit_ols
from repro.mlr.rls import RecursiveLeastSquares, rls_fit

from ..core.synthetic import stepped_sample

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _random_system(seed: int, n: int, p: int, noise: float = 0.25):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    beta = rng.normal(scale=3.0, size=p + 1)
    y = X @ beta + rng.normal(scale=noise, size=n)
    return X, y


class TestRLSConvergesToOLS:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(10, 60), p=st.integers(1, 5))
    def test_one_sample_at_a_time_matches_batch_ols(self, seed, n, p):
        assume(n >= p + 4)
        X, y = _random_system(seed, n, p)
        assume(np.linalg.cond(X) < 1e4)
        estimator = RecursiveLeastSquares(p + 1)
        for row, target in zip(X, y):
            estimator.update(row, float(target))
        expected = fit_ols(X, y).coefficients
        np.testing.assert_allclose(
            estimator.coefficients, expected, rtol=1e-3, atol=1e-4
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(10, 60), p=st.integers(1, 4))
    def test_rank_deficient_designs_agree_on_fitted_values(self, seed, n, p):
        """Duplicated column: coefficients are not identified, but the
        ridge-stabilised RLS solution must produce the same fitted
        values as the minimum-norm least-squares solution."""
        assume(n >= p + 5)
        X, y = _random_system(seed, n, p)
        assume(np.linalg.cond(X) < 1e4)
        X_dup = np.column_stack([X, X[:, -1]])
        theta = rls_fit(X_dup, y)
        expected, *_ = np.linalg.lstsq(X_dup, y, rcond=None)
        scale = float(np.abs(y).max()) + 1.0
        np.testing.assert_allclose(
            X_dup @ theta, X_dup @ expected, atol=1e-3 * scale
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, n=st.integers(8, 40))
    def test_single_parameter_edge_case(self, seed, n):
        """Intercept-only system — the smallest design RLS can see."""
        rng = np.random.default_rng(seed)
        y = rng.normal(loc=5.0, size=n)
        X = np.ones((n, 1))
        theta = rls_fit(X, y)
        np.testing.assert_allclose(theta[0], y.mean(), rtol=1e-4, atol=1e-5)

    def test_single_state_qualitative_fit_matches_ols(self):
        """One qualitative state: RLS batch derivation over the GENERAL
        design equals the OLS multi-states fit."""
        X, y, probing = stepped_sample(true_states=1, n=90, seed=5)
        fit = fit_qualitative(X, y, probing, uniform_partition(0.0, 1.0, 1), ("x",))
        ols_model = MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma")
        rls_model = RLSStrategy().finalize(
            MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma"), fit
        )
        assert rls_model.num_states == 1
        np.testing.assert_allclose(
            rls_model.coefficients, ols_model.coefficients, rtol=1e-4, atol=1e-6
        )


class TestForgetting:
    def test_forgetting_tracks_a_regime_shift(self):
        """With forgetting < 1 the estimate follows the new regime; with
        forgetting = 1 it stays anchored to the blended history."""
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(400), rng.normal(size=400)])
        y = np.concatenate([X[:200] @ [1.0, 2.0], X[200:] @ [5.0, -3.0]])
        tracking = RecursiveLeastSquares(2, forgetting=0.9)
        anchored = RecursiveLeastSquares(2, forgetting=1.0)
        for row, target in zip(X, y):
            tracking.update(row, float(target))
            anchored.update(row, float(target))
        new_regime = np.array([5.0, -3.0])
        assert np.linalg.norm(tracking.coefficients - new_regime) < np.linalg.norm(
            anchored.coefficients - new_regime
        )
        np.testing.assert_allclose(tracking.coefficients, new_regime, atol=0.05)


class TestValidation:
    def test_bad_shapes_rejected(self):
        estimator = RecursiveLeastSquares(3)
        with pytest.raises(ValueError):
            estimator.update(np.ones(2), 1.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, forgetting=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, delta=-1.0)

    def test_updater_warm_starts_from_model_coefficients(self):
        X, y, probing = stepped_sample(true_states=2, n=100, seed=2)
        fit = fit_qualitative(X, y, probing, uniform_partition(0.0, 1.0, 2), ("x",))
        model = RLSStrategy().finalize(
            MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma"), fit
        )
        updater = resolve_strategy("mlr.rls").make_updater(model)
        np.testing.assert_array_equal(updater.coefficients, model.coefficients)
