"""Unit and property tests for the OLS implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.mlr.linalg import add_intercept
from repro.mlr.ols import OLSResult, fit_ols


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


#: Statistic values and degrees of freedom at the edges of the kernels'
#: domains: zeros of both signs, the smallest subnormal, overflow, NaN.
EDGE_STATISTICS = (0.0, -0.0, 5e-324, 1.0, 1e300, np.inf, np.nan)
EDGE_DFS = (1, 2, 7, 10**6)


def inference_result(df_model, df_error, f_statistic=None, coefficients=None):
    """An OLSResult whose F statistic is *f_statistic* and whose t
    statistics are *coefficients* (identity design, unit mean square)."""
    p = df_model if coefficients is None else len(coefficients)
    return OLSResult(
        coefficients=np.zeros(p) if coefficients is None else np.array(coefficients),
        term_names=tuple(f"x{i}" for i in range(p)) if coefficients is not None else (),
        fitted=np.zeros(0),
        residuals=np.zeros(0),
        n_observations=p + df_error,
        n_parameters=p,
        sse=float(df_error),
        r_squared=0.0,
        adjusted_r_squared=0.0,
        standard_error=1.0,
        f_statistic=f_statistic,
        design=np.eye(p) if coefficients is not None else np.zeros((0, 0)),
        has_intercept=False,
    )


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestPValuesAreScipyStats:
    """The p-values come from the ``scipy.special`` kernels behind
    ``scipy.stats.f.sf`` / ``t.sf``, bit for bit, edges included."""

    @pytest.mark.parametrize("df_error", EDGE_DFS)
    @pytest.mark.parametrize("df_model", EDGE_DFS)
    def test_f_pvalue(self, df_model, df_error):
        for statistic in EDGE_STATISTICS:
            result = inference_result(df_model, df_error, f_statistic=statistic)
            want = scipy_stats.f.sf(statistic, df_model, df_error)
            assert_bitwise_equal(result.f_pvalue, want)
            assert isinstance(result.f_pvalue, float)

    @pytest.mark.parametrize("df_error", EDGE_DFS)
    def test_t_pvalues(self, df_error):
        result = inference_result(0, df_error, coefficients=EDGE_STATISTICS)
        statistics = np.array(EDGE_STATISTICS)
        want = 2.0 * scipy_stats.t.sf(np.abs(statistics), df_error)
        assert_bitwise_equal(result.t_pvalues, want)
        negated = inference_result(0, df_error, coefficients=-statistics)
        assert_bitwise_equal(negated.t_pvalues, want)


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
