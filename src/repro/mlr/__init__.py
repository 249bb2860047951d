"""Multiple linear regression substrate (from scratch, numpy + scipy.stats).

Implements exactly the statistical machinery the paper leans on: OLS with
R², standard error of estimation, F-test, coefficient inference, simple
(per-state) correlation coefficients, and variance inflation factors.
"""

from .correlation import (
    average_abs_state_correlation,
    max_abs_state_correlation,
    per_state_correlations,
    simple_correlation,
)
from .diagnostics import (
    DEFAULT_VIF_LIMIT,
    collinear_columns,
    max_state_vif,
    max_state_vifs,
    variance_inflation_factor,
    variance_inflation_factors,
)
from .ftest import PartialFTest, partial_f_test
from .intervals import (
    leverages,
    outlier_indices,
    prediction_interval,
    studentized_residuals,
)
from .linalg import add_intercept, as_design_matrix, as_response_vector, least_squares
from .ols import OLSResult, fit_ols
from .rls import NormalizedSGD, RecursiveLeastSquares, rls_fit, sgd_fit

__all__ = [
    "DEFAULT_VIF_LIMIT",
    "NormalizedSGD",
    "OLSResult",
    "PartialFTest",
    "RecursiveLeastSquares",
    "add_intercept",
    "as_design_matrix",
    "as_response_vector",
    "average_abs_state_correlation",
    "collinear_columns",
    "fit_ols",
    "least_squares",
    "leverages",
    "max_abs_state_correlation",
    "max_state_vif",
    "max_state_vifs",
    "outlier_indices",
    "partial_f_test",
    "per_state_correlations",
    "prediction_interval",
    "rls_fit",
    "sgd_fit",
    "simple_correlation",
    "studentized_residuals",
    "variance_inflation_factor",
    "variance_inflation_factors",
]
