"""Online least squares: recursive least squares with forgetting.

An incremental alternative to the batch OLS solve in :mod:`repro.mlr.ols`.
:class:`RecursiveLeastSquares` is the exact recursive form of least
squares.  With forgetting factor ``1.0`` and inverse-covariance
initialisation ``delta * I`` it computes the ridge solution
``(X'X + I/delta)^-1 X'y`` after seeing the rows one at a time, which
converges to the batch OLS coefficients as ``delta`` grows.  A forgetting
factor below one exponentially down-weights old samples so the estimate
tracks regime shifts.  It exposes ``update(x, y)`` (returns the
*a priori* residual) and ``coefficients``; the strategy layer in
:mod:`repro.core.strategy` drives it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RecursiveLeastSquares",
    "rls_fit",
]

DEFAULT_DELTA = 1e8
DEFAULT_FORGETTING = 1.0


class RecursiveLeastSquares:
    """Recursive least squares with an exponential forgetting factor."""

    def __init__(
        self,
        n_parameters: int,
        *,
        forgetting: float = DEFAULT_FORGETTING,
        delta: float = DEFAULT_DELTA,
        theta: np.ndarray | None = None,
    ) -> None:
        if n_parameters < 1:
            raise ValueError("n_parameters must be positive")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        self.n_parameters = int(n_parameters)
        self.forgetting = float(forgetting)
        self.delta = float(delta)
        if theta is None:
            self.theta = np.zeros(self.n_parameters, dtype=float)
        else:
            self.theta = np.asarray(theta, dtype=float).copy()
            if self.theta.shape != (self.n_parameters,):
                raise ValueError("theta shape does not match n_parameters")
        self.covariance = self.delta * np.eye(self.n_parameters)

    @property
    def coefficients(self) -> np.ndarray:
        return self.theta

    def update(self, x, y: float) -> float:
        """Fold one ``(x, y)`` sample in; returns the a-priori residual."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_parameters,):
            raise ValueError("sample shape does not match n_parameters")
        px = self.covariance @ x
        denom = self.forgetting + float(x @ px)
        gain = px / denom
        error = float(y) - float(x @ self.theta)
        self.theta = self.theta + gain * error
        cov = (self.covariance - np.outer(gain, px)) / self.forgetting
        # Symmetrise: the update is symmetric in exact arithmetic, and
        # drifting off the symmetric manifold destabilises long runs.
        self.covariance = (cov + cov.T) / 2.0
        return error


def rls_fit(
    X,
    y,
    *,
    forgetting: float = DEFAULT_FORGETTING,
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """Batch-fit by streaming the rows through RLS one at a time."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    estimator = RecursiveLeastSquares(
        X.shape[1], forgetting=forgetting, delta=delta
    )
    for row, target in zip(X, y):
        estimator.update(row, float(target))
    return estimator.coefficients
