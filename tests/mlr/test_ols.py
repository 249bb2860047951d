"""Unit and property tests for the OLS implementation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.mlr.linalg import add_intercept
from repro.mlr.ols import OLSResult, fit_ols, incomplete_beta


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


#: Statistic values and degrees of freedom at the edges of the p-values'
#: domains: zeros of both signs, the smallest subnormal, overflow, NaN.
EDGE_STATISTICS = (0.0, -0.0, 5e-324, 1.0, 1e300, np.inf, np.nan)
EDGE_DFS = (1, 2, 7, 10**6)
#: The p-values the edge statistics must give exactly, whatever the df.
EXACT = {0.0: 1.0, np.inf: 0.0}


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


def f_pvalue(statistic, df_model, df_error):
    return inference_result(df_model, df_error, f_statistic=statistic).f_pvalue


def t_pvalue(statistic, df_error):
    return float(inference_result(0, df_error, coefficients=[statistic]).t_pvalues[0])


def scipy_tolerance(*dfs):
    """Relative error allowed against ``scipy.stats``: the log-gamma
    prefactor of a large df loses about df·1e-16 to cancellation."""
    return 1e-7 if max(dfs) > 10**4 else 1e-9


def assert_matches(got, want, rel):
    """*got* is *want* within *rel*; below 1e-300 both are merely tiny."""
    if want < 1e-300:
        assert got < 1e-300, (got, want)
    else:
        assert abs(got - want) <= rel * want, (got, want)


class TestPValuesAreScipyStats:
    """Both p-values are ``scipy.stats.f.sf`` / ``2·t.sf`` to 1e-9 relative
    (1e-7 at df = 10**6), and exact at the edges: a zero statistic of
    either sign gives 1, an infinite one 0, NaN gives NaN."""

    @pytest.mark.parametrize("df_error", EDGE_DFS)
    @pytest.mark.parametrize("df_model", EDGE_DFS)
    def test_f_pvalue(self, df_model, df_error):
        for statistic in EDGE_STATISTICS:
            got = f_pvalue(statistic, df_model, df_error)
            assert isinstance(got, float)
            if np.isnan(statistic):
                assert np.isnan(got)
            elif statistic in EXACT:
                assert got == EXACT[statistic]
            else:
                want = scipy_stats.f.sf(statistic, df_model, df_error)
                assert_matches(got, want, scipy_tolerance(df_model, df_error))

    @pytest.mark.parametrize("df_error", EDGE_DFS)
    def test_t_pvalues(self, df_error):
        statistics = np.array(EDGE_STATISTICS)
        for signed in (statistics, -statistics):
            got = inference_result(0, df_error, coefficients=signed).t_pvalues
            assert got.dtype == np.float64 and got.shape == statistics.shape
            for statistic, value in zip(statistics.tolist(), got.tolist()):
                if np.isnan(statistic):
                    assert np.isnan(value)
                elif statistic in EXACT:
                    assert value == EXACT[statistic]
                else:
                    want = 2.0 * scipy_stats.t.sf(statistic, df_error)
                    assert_matches(value, want, scipy_tolerance(df_error))

    @pytest.mark.parametrize("df_model", (1, 2, 3, 5, 20, 100, 10**4))
    def test_f_pvalue_across_the_range(self, df_model):
        # df = (1, 1) is t with one df, squared: scipy is off there near
        # 0 (see test_scipy_is_off_near_zero_with_one_df), and the
        # closed-form tests cover it.
        for df_error in (1, 2, 3, 7, 30, 100, 1000, 10**4):
            if df_model == df_error == 1:
                continue
            for statistic in np.geomspace(1e-300, 1e8, 40).tolist():
                want = scipy_stats.f.sf(statistic, df_model, df_error)
                assert_matches(f_pvalue(statistic, df_model, df_error), want, 1e-9)

    @pytest.mark.parametrize("df_error", (2, 3, 7, 30, 1000, 10**4, 10**6))
    def test_t_pvalue_across_the_range(self, df_error):
        for statistic in np.geomspace(1e-300, 1e150, 60).tolist():
            want = 2.0 * scipy_stats.t.sf(statistic, df_error)
            assert_matches(t_pvalue(statistic, df_error), want, scipy_tolerance(df_error))

    def test_scipy_is_off_near_zero_with_one_df(self):
        # 1 − (2/π)·atan(1e-8) = 0.99999999363...; scipy reads 0.99999999051.
        assert t_pvalue(1e-8, 1) == 1 - 2 / math.pi * math.atan(1e-8)
        assert abs(2.0 * scipy_stats.t.sf(1e-8, 1) - t_pvalue(1e-8, 1)) > 3e-9


def two_sided_t_one_df(t):
    """1 − (2/π)·atan|t|, written as (2/π)·atan(1/|t|) past 1."""
    t = abs(t)
    return 2 / math.pi * math.atan(1 / t) if t > 1 else 1 - 2 / math.pi * math.atan(t)


def two_sided_t_two_df(t):
    """1 − |t|/√(2+t²) = 2/(s(s+|t|)) with s = √(2+t²), in 40 digits."""
    with localcontext() as context:
        context.prec = 40
        t = abs(Decimal(t))
        s = (2 + t * t).sqrt()
        return float(2 / (s * (s + t)))


def f_two_df(statistic, df_error):
    """(1 + 2F/d2)^(−d2/2), in 40 digits."""
    with localcontext() as context:
        context.prec = 40
        base = 1 + 2 * Decimal(statistic) / df_error
        return float(base ** (Decimal(-df_error) / 2))


T_GRID = np.concatenate([np.geomspace(1e-12, 1e150, 1200), np.linspace(0.5, 3.0, 300)])
F_GRID = np.concatenate([np.geomspace(1e-12, 1e12, 800), np.linspace(0.3, 5.0, 300)])


def worst_ulps(pairs):
    return max(abs(got - want) / math.ulp(want) for got, want in pairs if want >= 1e-300)


class TestClosedForms:
    """Where the tails have closed forms the p-values are within a few ulp
    of them.  Past the beta distribution's mean a p-value is 1 minus the
    other tail, so its error is a few ulp of that larger tail: ν = 2
    reaches 9 ulp of p ≈ 0.36."""

    def test_t_with_one_df(self):
        pairs = [(t_pvalue(t, 1), two_sided_t_one_df(t)) for t in T_GRID.tolist()]
        assert worst_ulps(pairs) <= 4

    def test_t_with_two_df(self):
        pairs = [(t_pvalue(t, 2), two_sided_t_two_df(t)) for t in T_GRID.tolist()]
        assert worst_ulps(pairs) <= 10

    @pytest.mark.parametrize("df_error", (1, 2))
    def test_f_with_two_model_df(self, df_error):
        pairs = [(f_pvalue(F, 2, df_error), f_two_df(F, df_error)) for F in F_GRID.tolist()]
        assert worst_ulps(pairs) <= 4


@settings(max_examples=200, deadline=None)
@given(
    df_model=st.integers(1, 200),
    df_error=st.integers(1, 10**4),
    low=st.floats(0.0, 1e6),
    high=st.floats(0.0, 1e6),
)
def test_property_f_pvalue_never_rises_with_the_statistic(df_model, df_error, low, high):
    low, high = sorted((low, high))
    assert f_pvalue(high, df_model, df_error) <= f_pvalue(low, df_model, df_error)


@settings(max_examples=200, deadline=None)
@given(df=st.integers(1, 10**4), low=st.floats(0.0, 1e6), high=st.floats(0.0, 1e6))
def test_property_t_pvalue_never_rises_with_the_statistic(df, low, high):
    low, high = sorted((low, high))
    assert t_pvalue(high, df) <= t_pvalue(low, df)
    assert t_pvalue(-high, df) == t_pvalue(high, df)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.5, 5e3),
    b=st.floats(0.5, 5e3),
    x=st.floats(0.0, 1.0),
)
def test_property_the_two_tails_sum_to_one(a, b, x):
    # One of the two calls is 1 minus the other's continued fraction, so
    # the sum is 1 to a rounding -- except where x sits exactly on the
    # switch point (a = b, x = 1/2 is one call twice) and both compute the
    # same tail, each with its own error.  Past a + b = 171 that is the
    # log-gamma prefactor's cancellation, about lgamma(a + b) ulp.
    y = 1.0 - x
    total = incomplete_beta(a, b, x, y) + incomplete_beta(b, a, y, x)
    cancellation = 0.0 if a + b < 171 else 4e-16 * math.lgamma(a + b)
    assert abs(total - 1.0) <= 1e-14 + cancellation


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
