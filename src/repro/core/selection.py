"""Mixed backward/forward variable selection for qualitative cost models.

§4.2: start from the *full basic model* and eliminate insignificant basic
variables backward; then try adding significant secondary variables
forward.  When a variable enters or leaves, **all** of its per-state
coefficients enter or leave with it.  Ranking uses simple correlation
coefficients computed per contention state:

* backward — remove the variable with the smallest *average* |r| with
  the response across states, provided removal improves the standard
  error of estimation or barely hurts it;
* forward — add the secondary variable with the largest average |r|
  with the *residuals* of the current model across states, provided it
  improves the SEE appreciably.

Additionally (§4.2 screen): a variable whose *maximum* per-state |r| with
the response is too small has no linear relationship with the cost in any
state and is removed from consideration, and (§4.3) a variable whose
max-over-states VIF is large is excluded to avoid multicollinearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mlr.correlation import average_abs_state_correlation, per_state_correlations
from ..mlr.diagnostics import DEFAULT_VIF_LIMIT, max_state_vif, max_state_vifs
from .fitting import QualitativeFit, fit_qualitative
from .partition import ContentionStates
from .qualitative import ModelForm


@dataclass(frozen=True)
class SelectionConfig:
    """Thresholds of the mixed selection procedure."""

    #: Variables with max-over-states |r| below this are screened out.
    correlation_floor: float = 0.05
    #: Backward: removal allowed if SEE grows by at most this fraction
    #: (the paper's delta_1: "removing x improves accuracy or affects the
    #: model very little").
    backward_tolerance: float = 0.02
    #: Forward: addition requires SEE to shrink by at least this fraction
    #: (the paper's delta_2: "significantly improves the accuracy").
    forward_gain: float = 0.02
    #: Max-over-states VIF above which a variable is excluded (§4.3).
    vif_limit: float = DEFAULT_VIF_LIMIT


@dataclass(frozen=True)
class SelectionStep:
    """One decision made by the procedure (for audit/report)."""

    action: str  # "screen", "vif", "remove", "add", "keep"
    variable: str
    detail: str


@dataclass
class SelectionResult:
    """Final variable set and fitted model."""

    variables: tuple[str, ...]
    fit: QualitativeFit
    steps: list[SelectionStep] = field(default_factory=list)


class _Data:
    """Column-addressable view of the sample for one query class."""

    def __init__(self, columns: dict[str, np.ndarray], y: np.ndarray, probing: np.ndarray):
        self.columns = columns
        self.y = y
        self.probing = probing

    def matrix(self, names: tuple[str, ...]) -> np.ndarray:
        if not names:
            return np.empty((self.y.shape[0], 0))
        return np.column_stack([self.columns[n] for n in names])


def _fit(data: _Data, names: tuple[str, ...], states: ContentionStates, form: ModelForm):
    return fit_qualitative(
        data.matrix(names), data.y, data.probing, states, names, form
    )


def select_variables(
    columns: dict[str, np.ndarray],
    y: np.ndarray,
    probing: np.ndarray,
    basic: tuple[str, ...],
    secondary: tuple[str, ...],
    states: ContentionStates,
    form: ModelForm = ModelForm.GENERAL,
    config: SelectionConfig = SelectionConfig(),
) -> SelectionResult:
    """Run the mixed backward/forward procedure.

    Parameters
    ----------
    columns:
        Variable name → value vector over the sample.
    y, probing:
        Observed costs and their sampled probing costs.
    basic, secondary:
        Candidate variable names (paper Table 3 sets).
    states:
        The contention states already determined for this environment.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    probing_arr = np.asarray(probing, dtype=float).reshape(-1)
    cols = {k: np.asarray(v, dtype=float).reshape(-1) for k, v in columns.items()}
    data = _Data(cols, y, probing_arr)
    assignment = np.asarray(states.assign(probing_arr.tolist()))
    m = states.num_states
    steps: list[SelectionStep] = []

    # Per-state |r| with the response.  Sample and states are fixed for
    # the whole procedure, so each candidate's are computed once and serve
    # both the screen (max) and every backward round's ranking (mean).
    response_r = {
        n: [abs(r) for r in per_state_correlations(cols[n], y, assignment, m)]
        for n in (*basic, *secondary)
    }

    def average_response_r(name: str) -> float:
        return sum(response_r[name]) / m

    # ---- screen: no linear relationship with the response in ANY state.
    def screened(names: tuple[str, ...]) -> tuple[str, ...]:
        kept = []
        for n in names:
            r_max = max(response_r[n])
            if r_max < config.correlation_floor:
                steps.append(
                    SelectionStep("screen", n, f"max state |r|={r_max:.3f} below floor")
                )
            else:
                kept.append(n)
        return tuple(kept)

    basic_kept = screened(basic)
    secondary_kept = screened(secondary)
    if not basic_kept:
        # Degenerate sample; keep the strongest basic variable anyway so
        # a model always exists.
        strongest = max(basic, key=lambda n: max(response_r[n]))
        basic_kept = (strongest,)
        steps.append(SelectionStep("keep", strongest, "forced: all basics screened"))

    # ---- multicollinearity screen on the basic set (worst VIF first).
    basic_list = list(basic_kept)
    while len(basic_list) > 1:
        X = data.matrix(tuple(basic_list))
        vifs = max_state_vifs(X, assignment, m)
        worst = int(np.argmax(vifs))
        if vifs[worst] <= config.vif_limit:
            break
        name = basic_list.pop(worst)
        steps.append(
            SelectionStep("vif", name, f"max state VIF={vifs[worst]:.1f} exceeds limit")
        )
    current_names = tuple(basic_list)
    current = _fit(data, current_names, states, form)

    # ---- backward elimination over the basic model.
    while len(current_names) > 1:
        candidate = min(current_names, key=average_response_r)
        reduced_names = tuple(n for n in current_names if n != candidate)
        reduced = _fit(data, reduced_names, states, form)
        if reduced.standard_error <= current.standard_error * (
            1.0 + config.backward_tolerance
        ):
            steps.append(
                SelectionStep(
                    "remove",
                    candidate,
                    f"SEE {current.standard_error:.4g} -> {reduced.standard_error:.4g}",
                )
            )
            current_names, current = reduced_names, reduced
        else:
            break

    # ---- forward selection over the secondary variables.
    remaining = [n for n in secondary_kept if n not in current_names]
    while remaining:
        residuals = current.ols.residuals
        candidate = max(
            remaining,
            key=lambda n: average_abs_state_correlation(
                cols[n], residuals, assignment, m
            ),
        )
        augmented_names = current_names + (candidate,)
        X_aug = data.matrix(augmented_names)
        vif = max_state_vif(X_aug, assignment, m, len(augmented_names) - 1)
        if vif > config.vif_limit:
            steps.append(
                SelectionStep("vif", candidate, f"max state VIF={vif:.1f} exceeds limit")
            )
            remaining.remove(candidate)
            continue
        try:
            augmented = _fit(data, augmented_names, states, form)
        except ValueError:
            # Not enough observations for another variable block.
            break
        if augmented.standard_error <= current.standard_error * (
            1.0 - config.forward_gain
        ):
            steps.append(
                SelectionStep(
                    "add",
                    candidate,
                    f"SEE {current.standard_error:.4g} -> {augmented.standard_error:.4g}",
                )
            )
            current_names, current = augmented_names, augmented
            remaining.remove(candidate)
        else:
            break

    return SelectionResult(variables=current_names, fit=current, steps=steps)
