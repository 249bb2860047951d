"""Regression diagnostics: multicollinearity (VIF) and related checks.

Paper §4.3: "The presence of multicollinearity is detected by means of
the variance inflation factor.  [...]  In a dynamic environment with
multiple contention states, let VIF_{j,i} be the variance inflation
factor of explanatory variable x_j in state i.  If max_i VIF_{j,i} is
large, x_j is not included in a cost model to avoid multicollinearity."
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import add_intercept, as_design_matrix
from .ols import coefficient_of_determination, solve

#: Conventional VIF threshold (Neter et al. recommend ~10).
DEFAULT_VIF_LIMIT = 10.0


def variance_inflation_factor(X: np.ndarray, column: int) -> float:
    """VIF of one column of X against the remaining columns.

    X must NOT contain an intercept column; the auxiliary regression adds
    its own.  Returns ``inf`` when the column is an exact linear
    combination of the others, and 1.0 when there is nothing to regress on.
    """
    X = as_design_matrix(X)
    n, p = X.shape
    if not 0 <= column < p:
        raise IndexError(f"column {column} out of range for {p}-column matrix")
    if p == 1 or n < 3:
        return 1.0
    target = X[:, column]
    if target.min() == target.max():
        # A constant column is degenerate with the intercept.  Only exact
        # constancy counts: a large-magnitude variable that barely varies
        # is for the auxiliary regression to judge.
        return float("inf")
    others = np.delete(X, column, axis=1)
    # Only R² is read: the solve and sums of squares fit_ols takes, on
    # the same arrays, without the rest of an OLSResult.
    _, _, _, sse, sst = solve(add_intercept(others), target, True)
    r2 = coefficient_of_determination(sse, sst)
    if r2 >= 1.0 - 1e-12:
        return float("inf")
    return 1.0 / (1.0 - r2)


def _state_blocks(
    X: np.ndarray, states: Sequence[int], num_states: int
) -> list[np.ndarray]:
    """Rows of X per state, for the states that can fit an auxiliary regression."""
    states_arr = np.asarray(states)
    if states_arr.shape[0] != X.shape[0]:
        raise ValueError("states must have one entry per observation")
    blocks = (X[states_arr == s] for s in range(num_states))
    return [sub for sub in blocks if sub.shape[0] > sub.shape[1] + 1]


def _worst_vif(blocks: list[np.ndarray], column: int) -> float:
    return max([1.0] + [variance_inflation_factor(sub, column) for sub in blocks])


def max_state_vifs(
    X: np.ndarray, states: Sequence[int], num_states: int
) -> list[float]:
    """max over states of the within-state VIF, for every variable.

    This is the paper's screen: a variable collinear with the others *in
    any state* is excluded.  States with too few observations to fit the
    auxiliary regression contribute 1.0 (no evidence of collinearity).
    Each state's rows are sliced out once for all columns.
    """
    X = as_design_matrix(X)
    blocks = _state_blocks(X, states, num_states)
    return [_worst_vif(blocks, j) for j in range(X.shape[1])]


def max_state_vif(
    X: np.ndarray, states: Sequence[int], num_states: int, column: int
) -> float:
    """:func:`max_state_vifs` for one variable."""
    X = as_design_matrix(X)
    return _worst_vif(_state_blocks(X, states, num_states), column)
