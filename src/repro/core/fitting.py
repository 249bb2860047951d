"""Fitting qualitative regression cost models to sampled observations.

This is the glue between the statistical substrate (:mod:`repro.mlr`)
and the paper's state machinery: given quantitative variables, observed
costs, sampled probing costs, and a candidate partition into contention
states, fit the qualitative regression of the requested form and report
the statistics the determination algorithms iterate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mlr.ols import OLSResult, fit_ols
from .partition import ContentionStates
from .qualitative import (
    ModelForm,
    adjusted_coefficients,
    build_design,
    num_parameters,
    term_names,
)


@dataclass
class QualitativeFit:
    """A fitted qualitative regression over a specific state partition."""

    states: ContentionStates
    assignment: list[int]
    ols: OLSResult
    form: ModelForm
    variable_names: tuple[str, ...]
    #: Training response, kept (with :attr:`design`) so alternative
    #: model-form strategies (:mod:`repro.core.strategy`) can re-derive
    #: coefficients from the same selected design without re-running
    #: selection.
    response: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def design(self) -> np.ndarray:
        """Training design matrix — the one array the regression holds."""
        return self.ols.design

    @property
    def num_states(self) -> int:
        return self.states.num_states

    @property
    def r_squared(self) -> float:
        return self.ols.r_squared

    @property
    def standard_error(self) -> float:
        return self.ols.standard_error

    def adjusted(self) -> np.ndarray:
        """Per-state effective coefficients B'[state, variable] (var 0 =
        intercept dummy)."""
        return adjusted_coefficients(
            self.ols.coefficients,
            len(self.variable_names),
            self.num_states,
            self.form,
        )

    def state_counts(self) -> list[int]:
        """Observations per state in the training sample."""
        counts = [0] * self.num_states
        for s in self.assignment:
            counts[s] += 1
        return counts


def fit_qualitative(
    X: np.ndarray,
    y: np.ndarray,
    probing: np.ndarray,
    states: ContentionStates,
    variable_names: tuple[str, ...],
    form: ModelForm = ModelForm.GENERAL,
) -> QualitativeFit:
    """Fit the qualitative regression of *form* over the given partition.

    Raises :class:`ValueError` when the sample cannot identify the model
    (fewer observations than parameters) — callers treat that as "this
    many states is too many for this sample".
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float).reshape(-1)
    probing_arr = np.asarray(probing, dtype=float).reshape(-1)
    if not (X.shape[0] == y.shape[0] == probing_arr.shape[0]):
        raise ValueError("X, y, and probing must agree on the number of rows")
    if X.shape[1] != len(variable_names):
        raise ValueError("variable_names must match the columns of X")

    assignment = states.assign(probing_arr.tolist())
    p = num_parameters(X.shape[1], states.num_states, form)
    if X.shape[0] < p:
        raise ValueError(
            f"{X.shape[0]} observations cannot identify {p} parameters "
            f"({states.num_states} states, form {form.value})"
        )
    design = build_design(X, assignment, states.num_states, form)
    names = term_names(variable_names, states.num_states, form)
    ols = fit_ols(design, y, term_names=names, has_intercept=True)
    return QualitativeFit(
        states=states,
        assignment=assignment,
        ols=ols,
        form=form,
        variable_names=tuple(variable_names),
        response=y,
    )


def min_state_count(fit_or_counts) -> int:
    """Smallest per-state observation count (0 for an empty state)."""
    counts = (
        fit_or_counts.state_counts()
        if isinstance(fit_or_counts, QualitativeFit)
        else list(fit_or_counts)
    )
    return min(counts) if counts else 0
