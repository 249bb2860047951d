"""Eager reference implementations the regression kernel is pinned to.

These are the bodies ``repro.mlr`` shipped before the solve/inference
split: :func:`eager_fit_ols` computes every statistic up front, and the
VIF helpers slice the state sub-matrix once per (column, state).  They
exist only so tests can assert that the kernel's numbers — including the
lazily evaluated ones — are the same floats, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats

from repro.mlr.linalg import (
    add_intercept,
    as_design_matrix,
    as_response_vector,
    least_squares,
    xtx_inverse,
)


@dataclass
class EagerOLS:
    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    sse: float
    r_squared: float
    adjusted_r_squared: float
    standard_error: float
    f_statistic: Optional[float]
    f_pvalue: Optional[float]
    t_pvalues: np.ndarray


def eager_fit_ols(X: np.ndarray, y: np.ndarray, has_intercept: bool = True) -> EagerOLS:
    X = as_design_matrix(X)
    n, p = X.shape
    y = as_response_vector(y, n)
    if n < p:
        raise ValueError(f"need at least as many observations ({n}) as parameters ({p})")

    beta = least_squares(X, y)
    fitted = X @ beta
    residuals = y - fitted
    sse = float(np.sum(residuals**2))
    if has_intercept:
        sst = float(np.sum((y - y.mean()) ** 2))
    else:
        sst = float(np.sum(y**2))

    if sst <= 0.0:
        r_squared = 1.0 if sse <= 1e-12 else 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - sse / sst))

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
    f_pvalue: Optional[float] = None
    if df_model > 0 and df_error > 0 and mse > 0:
        ssr = sst - sse
        f_statistic = max(0.0, (ssr / df_model) / mse)
        f_pvalue = float(stats.f.sf(f_statistic, df_model, df_error))

    if df_error > 0 and mse > 0:
        cov = mse * xtx_inverse(X)
        variances = np.clip(np.diag(cov), 0.0, None)
        std_errors = np.sqrt(variances)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stats = np.where(std_errors > 0, beta / std_errors, np.inf * np.sign(beta))
        t_pvals = 2.0 * stats.t.sf(np.abs(t_stats), df_error)
    else:
        t_pvals = np.full(p, np.nan)

    return EagerOLS(
        coefficients=beta,
        fitted=fitted,
        residuals=residuals,
        sse=sse,
        r_squared=r_squared,
        adjusted_r_squared=adjusted,
        standard_error=see,
        f_statistic=f_statistic,
        f_pvalue=f_pvalue,
        t_pvalues=t_pvals,
    )


def eager_vif(X: np.ndarray, column: int) -> float:
    """The VIF as first shipped, near-constant test (``np.allclose``) included."""
    X = as_design_matrix(X)
    n, p = X.shape
    if p == 1 or n < 3:
        return 1.0
    target = X[:, column]
    others = np.delete(X, column, axis=1)
    if np.allclose(target, target[0]):
        return float("inf")
    r2 = eager_fit_ols(add_intercept(others), target).r_squared
    if r2 >= 1.0 - 1e-12:
        return float("inf")
    return 1.0 / (1.0 - r2)


def eager_max_state_vif(
    X: np.ndarray, states: Sequence[int], num_states: int, column: int
) -> float:
    X = as_design_matrix(X)
    states_arr = np.asarray(states)
    worst = 1.0
    for s in range(num_states):
        sub = X[states_arr == s]
        if sub.shape[0] <= sub.shape[1] + 1:
            continue
        worst = max(worst, eager_vif(sub, column))
    return worst
