"""Ordinary least squares with the textbook inference the paper uses.

The paper validates cost models with the coefficient of (total/multiple)
determination R², the standard error of estimation (its eq. (3)), and
the overall F-test at significance level alpha = 0.01.  All three are
computed here, along with per-coefficient t tests (the probing-cost
estimator's significance screen, footnote 7).

Deriving one cost model solves dozens of regressions (IUPMA/ICMA
candidates, merge refits, selection steps, VIF auxiliaries) and ships
one.  :func:`fit_ols` therefore computes what those loops compare; the
two p-value reads are each evaluated when first read.  Both are tails of
one regularized incomplete beta function, :func:`incomplete_beta`, so
nothing here imports scipy: ``scipy.special`` alone costs a process a
quarter of a second and 11 MB, and every deriving process paid it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import exp, gamma, inf, isnan, lgamma, log, nan
from sys import float_info
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    as_design_matrix,
    as_response_vector,
    least_squares,
    xtx_inverse,
)

#: Lentz's stand-in for a zero denominator, its convergence test, and the
#: most terms it takes before giving up (df = 10**6 needs under a thousand).
_TINY = 1e-300
_CONVERGED = 1e-16
_MAX_TERMS = 10_000
#: ``math.gamma`` overflows past 171.6; beyond it the prefactor is taken
#: in logarithms.
_GAMMA_LIMIT = 171.0


def incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, b), for a, b > 0.

    *y* is 1 − x, computed by the caller as its own quotient: a far upper
    tail has x near 1, and only y then keeps its relative precision.
    Below the mean of the beta distribution the continued fraction
    converges fast for I_x(a, b); above it, for I_y(b, a) = 1 − I_x(a, b).
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _beta_tail(a, b, x, y)
    return 1.0 - _beta_tail(b, a, y, x)


def _beta_tail(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) as x^a y^b / (a B(a, b)) times its continued fraction."""
    power = x**a * y**b
    if a + b < _GAMMA_LIMIT and power >= float_info.min:
        # Powers and gamma functions each within a few ulp; taken in
        # logarithms, a power x^a would carry a·|log x| ulp.
        front = power * (gamma(a + b) / gamma(a)) / (gamma(b) * a)
    else:
        front = exp(a * log(x) + b * log(y) + lgamma(a + b) - lgamma(a) - lgamma(b)) / a
    return front * _continued_fraction(a, b, x)


def _continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction 1/(1 + d1/(1 + d2/(1 + ...))) of I_x(a, b).

    The modified Lentz method runs forward until the partial values stop
    changing; the fraction is then summed back up from that depth, which
    rounds each term once instead of compounding a running product's
    rounding over every term.
    """
    terms = [-(a + b) * x / (a + 1.0)]
    c, d = 1.0, 1.0 + terms[0]
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    for m in range(1, _MAX_TERMS):
        for term in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            terms.append(term)
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _TINY else _TINY
        if abs(d * c - 1.0) < _CONVERGED:
            value = 1.0
            for term in reversed(terms):
                value = 1.0 + term / value
            return 1.0 / value
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _t_pvalue(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic with *df* degrees of freedom."""
    t2 = t * t
    if isnan(t2):
        return nan
    if t2 == inf:  # also |t| past 1.3e154, where the p-value is below 1e-154
        return 0.0
    return incomplete_beta(df / 2, 0.5, df / (df + t2), t2 / (df + t2))


@dataclass
class OLSResult:
    """A fitted least-squares model plus its goodness-of-fit statistics.

    :func:`fit_ols` computes the solve — everything the determination and
    selection loops compare.  ``f_pvalue`` and ``t_pvalues`` are each
    evaluated from the solve (the latter from the kept design matrix) on
    first read, then cached.
    """

    coefficients: np.ndarray
    term_names: tuple[str, ...]
    fitted: np.ndarray
    residuals: np.ndarray
    n_observations: int
    n_parameters: int
    #: Error sum of squares.
    sse: float
    #: Coefficient of total determination R².
    r_squared: float
    #: Adjusted R² (penalizes parameter count).
    adjusted_r_squared: float
    #: Standard error of estimation — paper eq. (3).
    standard_error: float
    #: Overall F statistic (None when degenerate, e.g. saturated fit).
    f_statistic: Optional[float]
    #: The fitted design matrix (a reference, not a copy) and whether its
    #: column span includes the constant — what the inference needs.
    design: np.ndarray = field(repr=False)
    has_intercept: bool

    @property
    def degrees_of_freedom(self) -> int:
        return self.n_observations - self.n_parameters

    @cached_property
    def f_pvalue(self) -> Optional[float]:
        """p-value of the overall F test (None when ``f_statistic`` is)."""
        statistic = self.f_statistic
        if statistic is None:
            return None
        if isnan(statistic):
            return nan
        if statistic == inf:
            return 0.0
        df_model = self.n_parameters - 1 if self.has_intercept else self.n_parameters
        df_error = self.degrees_of_freedom
        explained = df_model * statistic
        return incomplete_beta(
            df_error / 2,
            df_model / 2,
            df_error / (df_error + explained),
            explained / (df_error + explained),
        )

    @cached_property
    def t_pvalues(self) -> np.ndarray:
        """Two-sided per-coefficient t-test p-values (NaN when df <= 0 or
        the fit is exact)."""
        df_error = self.degrees_of_freedom
        mse = self.sse / df_error if df_error > 0 else 0.0
        if mse <= 0:
            return np.full(self.n_parameters, np.nan)
        beta = self.coefficients
        variances = np.clip(mse * np.diag(xtx_inverse(self.design)), 0.0, None)
        std_errors = np.sqrt(variances)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stats = np.where(std_errors > 0, beta / std_errors, np.inf * np.sign(beta))
        return np.array([_t_pvalue(t, df_error) for t in t_stats.tolist()])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict responses for new design-matrix rows."""
        X = as_design_matrix(X)
        if X.shape[1] != len(self.coefficients):
            raise ValueError(
                f"design matrix has {X.shape[1]} columns, model has "
                f"{len(self.coefficients)} coefficients"
            )
        return X @ self.coefficients

    def is_significant(self, alpha: float = 0.01) -> bool:
        """Overall F-test at level *alpha* (paper §5 uses alpha = 0.01)."""
        if self.f_pvalue is None:
            return False
        return self.f_pvalue < alpha


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    term_names: Sequence[str] | None = None,
    has_intercept: bool = True,
) -> OLSResult:
    """Fit y ~ X by least squares.

    Parameters
    ----------
    X:
        Design matrix *including* any intercept column — callers build
        their own designs (the qualitative forms need full control).
    y:
        Response vector.
    term_names:
        Optional names for the columns of X.
    has_intercept:
        Whether the column span includes the constant vector; determines
        whether R² is computed around the mean (centered) or around zero.
    """
    X = as_design_matrix(X)
    n, p = X.shape
    y = as_response_vector(y, n)
    if n < p:
        raise ValueError(f"need at least as many observations ({n}) as parameters ({p})")
    if term_names is None:
        term_names = tuple(f"x{i}" for i in range(p))
    else:
        term_names = tuple(term_names)
        if len(term_names) != p:
            raise ValueError("term_names length must match design-matrix columns")

    beta, fitted, residuals, sse, sst = solve(X, y, has_intercept)
    r_squared = coefficient_of_determination(sse, sst)

    df_error = n - p
    df_model = p - 1 if has_intercept else p
    if df_error > 0:
        see = float(np.sqrt(sse / df_error))
        mse = sse / df_error
    else:
        see = 0.0
        mse = 0.0
    if n - 1 > 0 and df_error > 0 and sst > 0:
        adjusted = 1.0 - (sse / df_error) / (sst / (n - 1))
    else:
        adjusted = r_squared

    f_statistic: Optional[float] = None
    if df_model > 0 and df_error > 0 and mse > 0:
        ssr = sst - sse
        f_statistic = max(0.0, (ssr / df_model) / mse)

    return OLSResult(
        coefficients=beta,
        term_names=term_names,
        fitted=fitted,
        residuals=residuals,
        n_observations=n,
        n_parameters=p,
        sse=sse,
        r_squared=r_squared,
        adjusted_r_squared=adjusted,
        standard_error=see,
        f_statistic=f_statistic,
        design=X,
        has_intercept=has_intercept,
    )


def solve(
    X: np.ndarray, y: np.ndarray, has_intercept: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """The least-squares solve of y ~ X on validated arrays: coefficients,
    fitted values, residuals, SSE and SST (around the mean when the
    column span includes the constant, around zero otherwise)."""
    beta = least_squares(X, y)
    fitted = X @ beta
    residuals = y - fitted
    sse = float(np.sum(residuals**2))
    if has_intercept:
        sst = float(np.sum((y - y.mean()) ** 2))
    else:
        sst = float(np.sum(y**2))
    return beta, fitted, residuals, sse, sst


def coefficient_of_determination(sse: float, sst: float) -> float:
    """R² = 1 − SSE/SST, clipped to [0, 1]; a degenerate SST reads 1
    for an exact fit and 0 otherwise."""
    if sst <= 0.0:
        return 1.0 if sse <= 1e-12 else 0.0
    return max(0.0, min(1.0, 1.0 - sse / sst))
