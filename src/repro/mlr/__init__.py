"""Multiple linear regression substrate (from scratch, numpy only).

Implements exactly the statistical machinery the paper leans on: OLS with
R², standard error of estimation, F-test, coefficient inference, simple
(per-state) correlation coefficients, and variance inflation factors.
The F and t p-values are tails of one regularized incomplete beta
function (``ols.incomplete_beta``), so nothing here imports scipy.
"""

from .correlation import (
    average_abs_state_correlation,
    per_state_correlations,
    simple_correlation,
)
from .diagnostics import (
    DEFAULT_VIF_LIMIT,
    max_state_vif,
    max_state_vifs,
    variance_inflation_factor,
)
from .linalg import add_intercept, as_design_matrix, as_response_vector, least_squares
from .ols import OLSResult, fit_ols
from .rls import RecursiveLeastSquares, rls_fit

__all__ = [
    "DEFAULT_VIF_LIMIT",
    "OLSResult",
    "RecursiveLeastSquares",
    "add_intercept",
    "as_design_matrix",
    "as_response_vector",
    "average_abs_state_correlation",
    "fit_ols",
    "least_squares",
    "max_state_vif",
    "max_state_vifs",
    "per_state_correlations",
    "rls_fit",
    "simple_correlation",
    "variance_inflation_factor",
]
