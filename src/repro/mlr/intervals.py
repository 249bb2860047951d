"""Prediction intervals and outlier diagnostics for OLS fits.

Query optimizers don't only want a point estimate — a cost model that
can say "between 2 s and 9 s with 95% confidence" lets the optimizer
hedge between plans whose intervals overlap.  The standard OLS machinery
[11] gives this for free once the coefficient covariance is kept:

* prediction variance for a new row x:  s² · (1 + x'(X'X)⁻¹x)
* internally studentized residual:      e_i / (s · sqrt(1 − h_ii))

where h_ii is the leverage of training row i.  The studentized residuals
also drive outlier screening, which the static query sampling method's
validation step used when fitting cost models.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .linalg import as_design_matrix
from .ols import OLSResult


def _covariance(result: OLSResult) -> np.ndarray:
    if result.coef_covariance is None:
        raise ValueError(
            "this OLS fit carries no coefficient covariance "
            "(degenerate degrees of freedom)"
        )
    return result.coef_covariance


def prediction_interval(
    result: OLSResult, rows: np.ndarray, confidence: float = 0.95
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point, lower, upper) prediction intervals for new design rows.

    Parameters
    ----------
    result:
        A fitted model with positive error degrees of freedom.
    rows:
        New design-matrix rows (same columns as the training design).
    confidence:
        Two-sided coverage level in (0, 1).
    """
    return interval_from_covariance(
        result.coefficients,
        _covariance(result),
        result.standard_error,
        result.degrees_of_freedom,
        rows,
        confidence,
    )


def interval_from_covariance(
    coefficients: np.ndarray,
    covariance: np.ndarray,
    standard_error: float,
    degrees_of_freedom: int,
    rows: np.ndarray,
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`prediction_interval` from the stored parts of a fit.

    A shipped cost model keeps the coefficients, their covariance, the
    SEE and the sample size, not the training fit.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    X = as_design_matrix(rows)
    if X.shape[1] != covariance.shape[0]:
        raise ValueError(
            f"rows have {X.shape[1]} columns, model has {covariance.shape[0]} parameters"
        )
    if degrees_of_freedom <= 0:
        raise ValueError("no degrees of freedom for intervals")
    point = X @ coefficients
    s2 = standard_error**2
    # Var(new y - prediction) = s^2 + x' Cov(beta) x.
    var = s2 + np.einsum("ij,jk,ik->i", X, covariance, X)
    margin = stats.t.ppf(0.5 + confidence / 2.0, degrees_of_freedom) * np.sqrt(
        np.maximum(var, 0.0)
    )
    return point, point - margin, point + margin


def leverages(result: OLSResult, training_design: np.ndarray) -> np.ndarray:
    """Hat-matrix diagonal h_ii for the training rows."""
    X = as_design_matrix(training_design)
    cov = _covariance(result)
    s2 = result.standard_error**2
    if s2 <= 0:
        # Perfect fit: leverage via the pseudo-inverse of X'X directly.
        from .linalg import xtx_inverse

        xtx_inv = xtx_inverse(X)
    else:
        xtx_inv = cov / s2
    h = np.einsum("ij,jk,ik->i", X, xtx_inv, X)
    return np.clip(h, 0.0, 1.0)


def studentized_residuals(
    result: OLSResult, training_design: np.ndarray
) -> np.ndarray:
    """Internally studentized residuals of the training rows."""
    if result.standard_error <= 0:
        return np.zeros_like(result.residuals)
    h = leverages(result, training_design)
    denom = result.standard_error * np.sqrt(np.maximum(1.0 - h, 1e-12))
    return result.residuals / denom


def outlier_indices(
    result: OLSResult, training_design: np.ndarray, threshold: float = 3.0
) -> list[int]:
    """Training rows whose |studentized residual| exceeds *threshold*."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    r = studentized_residuals(result, training_design)
    return [int(i) for i in np.nonzero(np.abs(r) > threshold)[0]]
