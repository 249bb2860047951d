"""Qualitative variables in regression: indicator encoding and the four
model forms of the paper's Table 2.

A qualitative variable with m states is represented by m-1 indicator
variables z_1 .. z_{m-1}; the all-zeros encoding denotes the reference
state (we use state 0, the lowest-contention subrange).  The qualitative
variable can enter a regression in four ways:

* **coincident** — the states share one equation (the static method's
  assumption);
* **parallel**   — state-specific intercepts, shared slopes;
* **concurrent** — shared intercept, state-specific slopes;
* **general**    — state-specific intercepts *and* slopes.

§3.2 argues the general form is right for query cost models, because
contention stretches initialization (intercept) and per-tuple I/O/CPU
work (slopes) alike; the other forms are implemented both for the
model-form ablation benchmark and because the theory is part of the
contribution.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np


class ModelForm(enum.Enum):
    """How a qualitative variable influences the regression equation."""

    COINCIDENT = "coincident"
    PARALLEL = "parallel"
    CONCURRENT = "concurrent"
    GENERAL = "general"


def encode_indicators(states: Sequence[int], num_states: int) -> np.ndarray:
    """Indicator matrix Z with columns z_1 .. z_{m-1}.

    ``Z[t, i-1] == 1`` iff observation t is in state i (i >= 1); a row of
    zeros means state 0.  At most one indicator is 1 per row — a system
    can only occupy one contention state at a time.
    """
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    states_arr = np.asarray(states, dtype=int)
    if states_arr.ndim != 1:
        raise ValueError("states must be a 1-D sequence")
    if states_arr.size and (states_arr.min() < 0 or states_arr.max() >= num_states):
        raise ValueError("state index out of range")
    Z = np.zeros((states_arr.size, num_states - 1))
    for i in range(1, num_states):
        Z[states_arr == i, i - 1] = 1.0
    return Z


def term_names(
    variable_names: Sequence[str], num_states: int, form: ModelForm
) -> tuple[str, ...]:
    """Column names matching :func:`build_design`'s output order."""
    names: list[str] = ["b0"]
    if form in (ModelForm.PARALLEL, ModelForm.GENERAL):
        names += [f"b0:s{i}" for i in range(1, num_states)]
    for var in variable_names:
        names.append(var)
        if form in (ModelForm.CONCURRENT, ModelForm.GENERAL):
            names += [f"{var}:s{i}" for i in range(1, num_states)]
    return tuple(names)


def build_design(
    X: np.ndarray,
    states: Sequence[int],
    num_states: int,
    form: ModelForm = ModelForm.GENERAL,
) -> np.ndarray:
    """Design matrix for the chosen qualitative form.

    Parameters
    ----------
    X:
        Quantitative explanatory variables, shape (t, n) — *without*
        an intercept column.
    states:
        State index per observation.
    num_states:
        Number of states m.  With m == 1 every form degenerates to the
        coincident (static) model — "the static method is a special case
        of the multi-states one when only one contention state is
        allowed" (§1).

    Column order matches :func:`term_names`: the intercept block first
    (1, then its state offsets for parallel/general), then one block per
    variable (x_j, then its state offsets for concurrent/general).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    Z = encode_indicators(states, num_states)
    t = X.shape[0]
    if Z.shape[0] != t:
        raise ValueError("states must have one entry per observation")

    columns: list[np.ndarray] = [np.ones(t)]
    if form in (ModelForm.PARALLEL, ModelForm.GENERAL):
        columns.extend(Z[:, i] for i in range(Z.shape[1]))
    for j in range(X.shape[1]):
        columns.append(X[:, j])
        if form in (ModelForm.CONCURRENT, ModelForm.GENERAL):
            columns.extend(X[:, j] * Z[:, i] for i in range(Z.shape[1]))
    return np.column_stack(columns) if columns else np.ones((t, 1))


def num_parameters(n_variables: int, num_states: int, form: ModelForm) -> int:
    """Parameter count of the design produced by :func:`build_design`."""
    if form is ModelForm.COINCIDENT:
        return 1 + n_variables
    if form is ModelForm.PARALLEL:
        return num_states + n_variables
    if form is ModelForm.CONCURRENT:
        return 1 + n_variables * num_states
    return (1 + n_variables) * num_states


def adjusted_coefficients(
    coefficients: np.ndarray,
    n_variables: int,
    num_states: int,
    form: ModelForm = ModelForm.GENERAL,
) -> np.ndarray:
    """Effective per-state coefficients B'[state, variable].

    ``B'[i, j]`` is the coefficient of variable j (j = 0 is the dummy
    intercept) *in effect* when the system is in state i: the reference
    coefficient plus that state's offset.  These are the "adjusted
    coefficients" Algorithm 3.1's merging phase compares between
    neighbouring states.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    expected = num_parameters(n_variables, num_states, form)
    if coefficients.shape != (expected,):
        raise ValueError(
            f"expected {expected} coefficients for form {form.value}, "
            f"got {coefficients.shape}"
        )
    B = np.zeros((num_states, n_variables + 1))
    pos = 0
    # Intercept block.
    base_intercept = coefficients[pos]
    pos += 1
    B[:, 0] = base_intercept
    if form in (ModelForm.PARALLEL, ModelForm.GENERAL):
        for i in range(1, num_states):
            B[i, 0] += coefficients[pos]
            pos += 1
    # Variable blocks.
    for j in range(1, n_variables + 1):
        base = coefficients[pos]
        pos += 1
        B[:, j] = base
        if form in (ModelForm.CONCURRENT, ModelForm.GENERAL):
            for i in range(1, num_states):
                B[i, j] += coefficients[pos]
                pos += 1
    assert pos == expected
    return B


def design_row(
    values: Sequence[float], state: int, num_states: int, form: ModelForm
) -> np.ndarray:
    """One design-matrix row for prediction at a known state.

    Equal, element for element, to ``build_design([values], [state],
    num_states, form)[0]`` — the same ``x * 1.0`` / ``x * 0.0`` products
    in :func:`term_names` order, so non-finite values and signed zeros
    come out as they do there — without building a matrix for one row.
    """
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    state = int(state)
    if not 0 <= state < num_states:
        raise ValueError("state index out of range")
    indicators = [1.0 if i == state else 0.0 for i in range(1, num_states)]
    row = [1.0]
    if form in (ModelForm.PARALLEL, ModelForm.GENERAL):
        row += indicators
    state_slopes = form in (ModelForm.CONCURRENT, ModelForm.GENERAL)
    for value in values:
        x = float(value)
        row.append(x)
        if state_slopes:
            row.extend([x * z for z in indicators])
    return np.array(row)
