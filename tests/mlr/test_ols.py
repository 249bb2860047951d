"""Unit and property tests for the OLS implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.mlr.linalg import add_intercept
from repro.mlr.ols import fit_ols


def make_data(n=60, noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0, 10, n)
    x2 = rng.uniform(0, 5, n)
    y = 3.0 + 2.0 * x1 - 1.5 * x2 + rng.normal(0, noise, n)
    return np.column_stack([x1, x2]), y


class TestFitting:
    def test_recovers_exact_coefficients_noiselessly(self):
        X, _ = make_data(noise=0.0)
        y = 3.0 + 2.0 * X[:, 0] - 1.5 * X[:, 1]
        result = fit_ols(add_intercept(X), y)
        assert result.coefficients == pytest.approx([3.0, 2.0, -1.5], abs=1e-8)
        assert result.r_squared == pytest.approx(1.0)
        assert result.standard_error == pytest.approx(0.0, abs=1e-7)

    def test_near_recovery_with_noise(self):
        X, y = make_data(noise=0.3)
        result = fit_ols(add_intercept(X), y)
        assert result.coefficients == pytest.approx([3.0, 2.0, -1.5], abs=0.5)
        assert result.r_squared > 0.95

    def test_r_squared_matches_scipy_for_simple_regression(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 50)
        y = 1.0 + 4.0 * x + rng.normal(0, 0.2, 50)
        result = fit_ols(add_intercept(x.reshape(-1, 1)), y)
        lin = scipy_stats.linregress(x, y)
        assert result.r_squared == pytest.approx(lin.rvalue**2, abs=1e-10)
        assert result.coefficients[1] == pytest.approx(lin.slope, abs=1e-10)

    def test_see_is_paper_equation_3(self):
        X, y = make_data()
        result = fit_ols(add_intercept(X), y)
        n, p = X.shape[0], 3
        manual = np.sqrt(np.sum(result.residuals**2) / (n - p))
        assert result.standard_error == pytest.approx(manual)

    def test_f_test_significant_for_real_relationship(self):
        X, y = make_data()
        result = fit_ols(add_intercept(X), y)
        assert result.f_statistic is not None
        assert result.is_significant(alpha=0.01)

    def test_f_test_insignificant_for_pure_noise(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        result = fit_ols(add_intercept(X), y)
        assert not result.is_significant(alpha=0.01)

    def test_more_observations_than_parameters_required(self):
        with pytest.raises(ValueError):
            fit_ols(np.ones((2, 3)), np.ones(2))

    def test_term_names_length_checked(self):
        X, y = make_data()
        with pytest.raises(ValueError):
            fit_ols(add_intercept(X), y, term_names=("a",))


class TestInference:
    def test_t_pvalues_small_for_strong_effects(self):
        X, y = make_data(noise=0.1)
        result = fit_ols(add_intercept(X), y)
        assert result.t_pvalues[1] < 1e-6
        assert result.t_pvalues[2] < 1e-6

    def test_irrelevant_variable_has_large_pvalue(self):
        rng = np.random.default_rng(11)
        x1 = rng.uniform(0, 10, 80)
        junk = rng.uniform(0, 10, 80)
        y = 2.0 * x1 + rng.normal(0, 0.5, 80)
        result = fit_ols(add_intercept(np.column_stack([x1, junk])), y)
        assert result.t_pvalues[2] > 0.05


class TestPrediction:
    def test_predict_matches_fitted_on_training_rows(self):
        X, y = make_data()
        design = add_intercept(X)
        result = fit_ols(design, y)
        assert result.predict(design) == pytest.approx(result.fitted)

    def test_predict_column_mismatch_rejected(self):
        X, y = make_data()
        result = fit_ols(add_intercept(X), y)
        with pytest.raises(ValueError):
            result.predict(np.ones((2, 2)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 80),
)
def test_property_residuals_orthogonal_to_design(seed, n):
    """OLS residuals are orthogonal to every design column."""
    rng = np.random.default_rng(seed)
    X = add_intercept(rng.uniform(-5, 5, (n, 2)))
    y = rng.normal(0, 1, n)
    result = fit_ols(X, y)
    scale = max(1.0, float(np.abs(y).max()) * n)
    assert np.allclose(X.T @ result.residuals / scale, 0.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_r_squared_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    X = add_intercept(rng.uniform(0, 1, (30, 3)))
    y = rng.normal(0, 1, 30)
    result = fit_ols(X, y)
    assert 0.0 <= result.r_squared <= 1.0
    assert result.adjusted_r_squared <= result.r_squared + 1e-12
