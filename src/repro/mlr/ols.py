"""Ordinary least squares with the textbook inference the paper uses.

The paper validates cost models with the coefficient of (total/multiple)
determination R², the standard error of estimation (its eq. (3)), and
the overall F-test at significance level alpha = 0.01.  All three are
computed here, along with per-coefficient t tests (the probing-cost
estimator's significance screen, footnote 7).

Deriving one cost model solves dozens of regressions (IUPMA/ICMA
candidates, merge refits, selection steps, VIF auxiliaries) and ships
one.  :func:`fit_ols` therefore computes what those loops compare; the
two p-value reads are each evaluated when first read.  They call the
``scipy.special`` kernels that ``scipy.stats.f.sf`` and ``t.sf`` call
(``fdtrc`` and ``stdtr``), imported on that first read: importing
``scipy.stats`` would cost every process about a second and 44 MB for
two survival functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    as_design_matrix,
    as_response_vector,
    least_squares,
    xtx_inverse,
)


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
        if self.f_statistic is None:
            return None
        from scipy import special

        df_model = self.n_parameters - 1 if self.has_intercept else self.n_parameters
        return float(special.fdtrc(df_model, self.degrees_of_freedom, self.f_statistic))

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
        from scipy import special

        return 2.0 * special.stdtr(df_error, -np.abs(t_stats))

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
