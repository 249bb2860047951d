"""The solve-only regression kernel is the eager reference.

``fit_ols`` defers the F-test p-value and the t-test p-values until
each is read; the VIF screen slices each state once per round.  Both
must leave every solved number exactly as the eager implementations in
:mod:`tests.mlr.reference` compute it — ``==`` on the bytes, not
``approx`` — because Tables 4–6 and the registry payloads are pinned
byte for byte.  The two p-values are ``repro``'s own incomplete beta,
the reference's ``scipy.stats``: they agree to 1e-9 relative, and NaN
where the reference's are.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mlr.diagnostics import (
    max_state_vif,
    max_state_vifs,
    variance_inflation_factor,
)
from repro.mlr.linalg import add_intercept
from repro.mlr.ols import fit_ols

from .reference import eager_fit_ols, eager_max_state_vif, eager_vif

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SOLVED = (
    "coefficients", "fitted", "residuals", "sse", "r_squared",
    "adjusted_r_squared", "standard_error", "f_statistic",
)
DEFERRED = ("f_pvalue", "t_pvalues")


def _bits(value):
    return None if value is None else (np.shape(value), np.asarray(value).tobytes())


def assert_close(got, want):
    """The same p-values to 1e-9 relative: NaN, None and underflow alike."""
    if want is None:
        assert got is None
        return
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    tiny = want < 1e-300
    assert np.all(got[tiny] < 1e-300)
    assert np.allclose(got[~tiny], want[~tiny], rtol=1e-9, atol=0.0, equal_nan=True)


def _design(kind: str, seed: int, n: int, p: int):
    """(X, y, has_intercept) of one of the ugly-design families."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p)) * rng.uniform(0.1, 1e4)])
    y = X @ rng.normal(scale=3.0, size=p + 1) + rng.normal(scale=0.25, size=n)
    if kind == "rank_deficient":
        X = np.column_stack([X, X[:, -1], X[:, 1] - 2.0 * X[:, -1]])
    elif kind == "saturated":
        X, y = X[: p + 1], y[: p + 1]
    elif kind == "constant_response":
        y = np.full(n, float(rng.normal()))
    elif kind == "no_intercept":
        return X[:, 1:], y, False
    return X, y, True


class TestFitOlsIsTheEagerFit:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(
            ["well_conditioned", "rank_deficient", "saturated",
             "constant_response", "no_intercept"]
        ),
        seed=SEEDS,
        n=st.integers(8, 60),
        p=st.integers(1, 5),
    )
    def test_every_field_first_and_second_read(self, kind, seed, n, p):
        assume(n >= p + 3)
        X, y, has_intercept = _design(kind, seed, n, p)
        expected = eager_fit_ols(X, y, has_intercept)
        result = fit_ols(X, y, has_intercept=has_intercept)
        for name in SOLVED:
            assert _bits(getattr(result, name)) == _bits(getattr(expected, name)), name
        first = {name: _bits(getattr(result, name)) for name in DEFERRED}
        for name in DEFERRED:
            assert_close(getattr(result, name), getattr(expected, name))
            # Evaluated on the first read, cached for the second.
            assert _bits(getattr(result, name)) == first[name], name
        assert result.t_pvalues is result.t_pvalues

    def test_deferred_reads_do_not_disturb_the_solve(self):
        X, y, _ = _design("well_conditioned", 3, 30, 3)
        result = fit_ols(X, y)
        before = {name: _bits(getattr(result, name)) for name in SOLVED}
        assert result.f_pvalue is not None and result.t_pvalues is not None
        assert {name: _bits(getattr(result, name)) for name in SOLVED} == before

    def test_the_f_pvalue_never_inverts_the_design(self, monkeypatch):
        from repro.mlr import ols

        X, y, _ = _design("well_conditioned", 4, 30, 3)
        expected = eager_fit_ols(X, y)
        monkeypatch.setattr(ols, "xtx_inverse", None)  # calling it would raise
        result = fit_ols(X, y)
        assert_close(result.f_pvalue, expected.f_pvalue)
        with pytest.raises(TypeError):
            result.t_pvalues


def _state_sample(seed: int, n: int, p: int, num_states: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 1e3, size=p)
    X[:, -1] += X[:, 0] * rng.uniform(0.0, 3.0)  # some real collinearity
    states = rng.integers(0, num_states, size=n)
    return X, states


class TestVifIsTheEagerVif:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(4, 50), p=st.integers(1, 5))
    def test_single_column(self, seed, n, p):
        assume(n >= p + 1)  # fewer rows than parameters raises, in both
        X, _ = _state_sample(seed, n, p, 1)
        for j in range(p):
            assert variance_inflation_factor(X, j) == eager_vif(X, j)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS, n=st.integers(6, 80), p=st.integers(1, 4), m=st.integers(1, 5)
    )
    def test_max_over_states(self, seed, n, p, m):
        X, states = _state_sample(seed, n, p, m)
        expected = [eager_max_state_vif(X, states, m, j) for j in range(p)]
        assert max_state_vifs(X, states, m) == expected
        assert [max_state_vif(X, states.tolist(), m, j) for j in range(p)] == expected

    def test_states_must_cover_the_rows(self):
        with pytest.raises(ValueError):
            max_state_vifs(np.ones((4, 2)), [0, 1], 2)


class TestNearConstantColumns:
    """A large-magnitude variable that does vary is not 'constant'."""

    def test_varying_large_column_is_not_declared_collinear(self):
        # Operand cardinalities at scale 1.0: 250,000 vs 250,002 are
        # np.allclose at the default rtol, yet they vary — and here they
        # vary independently of the other variable.
        rng = np.random.default_rng(0)
        other = rng.normal(size=40)
        big = 250_000.0 + rng.integers(0, 3, size=40)
        X = np.column_stack([other, big])
        assert np.allclose(big, big[0])
        assert eager_vif(X, 1) == float("inf")  # the old verdict
        vif = variance_inflation_factor(X, 1)
        assert np.isfinite(vif) and vif < 2.0

    def test_exactly_constant_column_is_still_infinite(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 250_000.0)])
        assert variance_inflation_factor(X, 1) == float("inf")

    def test_varying_large_column_that_is_collinear_is_still_caught(self):
        base = np.arange(20.0)
        X = np.column_stack([base, 2_500_000.0 + base])
        assert np.allclose(X[:, 1], X[0, 1], rtol=1e-5)
        assert variance_inflation_factor(X, 1) == float("inf")


def fit_ols_vif(X: np.ndarray, column: int) -> float:
    """The VIF with its auxiliary R² read from a whole :func:`fit_ols`."""
    n, p = X.shape
    if p == 1 or n < 3:
        return 1.0
    target = X[:, column]
    if target.min() == target.max():
        return float("inf")
    r2 = fit_ols(add_intercept(np.delete(X, column, axis=1)), target).r_squared
    return float("inf") if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)


class TestVifAuxiliaryIsTheFitOlsRSquared:
    """The VIF solves its auxiliary regression without an ``OLSResult``;
    every VIF must be the one ``fit_ols``'s R² gives, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(4, 50), p=st.integers(2, 5))
    def test_random_blocks(self, seed, n, p):
        assume(n >= p + 1)
        X, _ = _state_sample(seed, n, p, 1)
        for j in range(p):
            want = 1.0 / (1.0 - fit_ols(add_intercept(np.delete(X, j, axis=1)), X[:, j]).r_squared)
            assert variance_inflation_factor(X, j) == want == fit_ols_vif(X, j)

    @pytest.mark.parametrize(
        "X",
        [
            np.column_stack([np.arange(10.0), np.full(10, 7.0), np.arange(10.0) ** 2]),
            np.column_stack(
                [np.arange(12.0), 3.0 * np.arange(12.0) - 5.0, np.sin(np.arange(12.0))]
            ),
            np.array([[1.0, 2.0], [3.0, 5.0]]),
            np.arange(8.0).reshape(-1, 1),
        ],
        ids=["constant", "exactly_collinear", "n_below_3", "p_1"],
    )
    def test_degenerate_blocks(self, X):
        for j in range(X.shape[1]):
            assert variance_inflation_factor(X, j) == fit_ols_vif(X, j)
