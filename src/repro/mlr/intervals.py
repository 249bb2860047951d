"""Prediction intervals for OLS fits.

Query optimizers don't only want a point estimate — a cost model that
can say "between 2 s and 9 s with 95% confidence" lets the optimizer
hedge between plans whose intervals overlap.  The standard OLS machinery
[11] gives this for free once the coefficient covariance is kept: the
prediction variance for a new row x is  s² · (1 + x'(X'X)⁻¹x).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .linalg import as_design_matrix


def interval_from_covariance(
    coefficients: np.ndarray,
    covariance: np.ndarray,
    standard_error: float,
    degrees_of_freedom: int,
    rows: np.ndarray,
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point, lower, upper) prediction intervals from the stored parts of a fit.

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
