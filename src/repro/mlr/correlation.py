"""Simple correlation coefficients, per the paper's variable selection.

Section 4.2 defines the *simple correlation coefficient* between an
explanatory variable and the response **within one contention state**,
then selects variables by the maximum / average of those per-state
coefficients.  The helpers here compute single-pair correlations with the
degenerate cases (zero variance, fewer than two points) pinned to 0.0 —
a constant variable explains nothing, which is exactly how the selection
procedure should treat it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def simple_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two samples; 0.0 for degenerate inputs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    if x.size < 2:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = float(np.sum(xc * yc) / (sx * sy))
    # Guard against floating-point drift outside [-1, 1].
    return max(-1.0, min(1.0, r))


def per_state_correlations(
    x: Sequence[float], y: Sequence[float], states: Sequence[int], num_states: int
) -> list[float]:
    """Correlation of (x, y) computed separately within each state.

    Parameters
    ----------
    x, y:
        Full samples.
    states:
        State index of each observation (0-based).
    num_states:
        Total number of states; states with no observations report 0.0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    states_arr = np.asarray(states)
    if not (x.shape == y.shape == states_arr.shape):
        raise ValueError("x, y, and states must have the same length")
    out = []
    for s in range(num_states):
        mask = states_arr == s
        out.append(simple_correlation(x[mask], y[mask]))
    return out


def average_abs_state_correlation(
    x: Sequence[float], y: Sequence[float], states: Sequence[int], num_states: int
) -> float:
    """mean_i |r_i| over states — the paper's backward/forward ranking key."""
    rs = per_state_correlations(x, y, states, num_states)
    return sum(abs(r) for r in rs) / len(rs)
