"""Algorithm 3.1: Iterative Uniform Partition with Merging Adjustment.

Phase 1 grows the number of uniformly partitioned contention states until
the qualitative regression stops improving appreciably (in R² *and*
standard error of estimation) or the model would get too complicated;
phase 2 merges neighbouring states whose adjusted coefficients are not
significantly different.  The algorithm returns the final state set *and*
the fitted model — "the algorithm integrates the contention states
determination procedure with the cost model development procedure"
(paper footnote 4).

The same iterate-and-adjust loop, parameterized by how candidate
partitions are generated, also powers ICMA (:mod:`repro.core.icma`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fitting import QualitativeFit, fit_qualitative, min_state_count
from .merging import DEFAULT_MERGE_THRESHOLD, MergeRecord, merge_adjustment
from .partition import ContentionStates, uniform_partition
from .qualitative import ModelForm


@dataclass(frozen=True)
class StatesConfig:
    """Tuning knobs for the state-determination algorithms."""

    #: Largest number of states tried before the model is "too complicated"
    #: (§5: three to six states usually suffice).
    max_states: int = 6
    #: Minimum R² improvement that justifies another state.
    min_r2_gain: float = 0.02
    #: Minimum *relative* SEE improvement that justifies another state.
    min_see_gain: float = 0.05
    #: Merge states whose adjusted coefficients differ by less than this.
    merge_threshold: float = DEFAULT_MERGE_THRESHOLD
    #: Per-state identifiability floor; ``None`` derives it from the
    #: variable count (n + 2).
    min_obs_per_state: Optional[int] = None
    form: ModelForm = ModelForm.GENERAL

    def obs_floor(self, n_variables: int) -> int:
        if self.min_obs_per_state is not None:
            return self.min_obs_per_state
        return n_variables + 2


@dataclass(frozen=True)
class PhaseRecord:
    """Statistics of one phase-1 iteration."""

    num_states: int
    r_squared: float
    standard_error: float
    accepted: bool


@dataclass
class StateDeterminationResult:
    """Outcome of IUPMA/ICMA: final states, fitted model, and history."""

    fit: QualitativeFit
    phase1: list[PhaseRecord] = field(default_factory=list)
    merges: list[MergeRecord] = field(default_factory=list)
    algorithm: str = "iupma"

    @property
    def states(self) -> ContentionStates:
        return self.fit.states

    @property
    def num_states(self) -> int:
        return self.fit.num_states

    def history(self) -> StateHistory:
        """How the states were found, without the final fit's arrays."""
        return StateHistory(phase1=self.phase1, merges=self.merges)


@dataclass
class StateHistory:
    """What a derived model keeps of its state determination: how the
    states were found (the final states are the model's own)."""

    phase1: list[PhaseRecord]
    merges: list[MergeRecord]


#: A partitioner maps a desired state count to a candidate partition,
#: or None when that count is infeasible for the sample.
Partitioner = Callable[[int], Optional[ContentionStates]]


def determine_states(
    X: np.ndarray,
    y: np.ndarray,
    probing: np.ndarray,
    variable_names: tuple[str, ...],
    partitioner: Partitioner,
    config: StatesConfig = StatesConfig(),
    algorithm: str = "custom",
) -> StateDeterminationResult:
    """The shared iterate-then-merge loop behind IUPMA and ICMA."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float).reshape(-1)
    probing_arr = np.asarray(probing, dtype=float).reshape(-1)
    if probing_arr.size == 0:
        raise ValueError("at least one observation is required")
    floor = config.obs_floor(X.shape[1])

    one_state = partitioner(1)
    if one_state is None:
        raise ValueError("partitioner must support a single state")
    current = fit_qualitative(X, y, probing_arr, one_state, variable_names, config.form)
    history = [
        PhaseRecord(1, current.r_squared, current.standard_error, accepted=True)
    ]

    m = 1
    while m < config.max_states:
        candidate_states = partitioner(m + 1)
        if candidate_states is None or candidate_states.num_states != m + 1:
            break
        try:
            candidate = fit_qualitative(
                X, y, probing_arr, candidate_states, variable_names, config.form
            )
        except ValueError:
            break  # sample too small to identify this many states
        if min_state_count(candidate) < floor:
            break
        r2_gain = candidate.r_squared - current.r_squared
        if current.standard_error > 0:
            see_gain = (
                current.standard_error - candidate.standard_error
            ) / current.standard_error
        else:
            see_gain = 0.0
        accepted = r2_gain >= config.min_r2_gain or see_gain >= config.min_see_gain
        history.append(
            PhaseRecord(
                m + 1, candidate.r_squared, candidate.standard_error, accepted
            )
        )
        if not accepted:
            break
        current = candidate
        m += 1

    final, merges = merge_adjustment(
        current, X, y, probing_arr, threshold=config.merge_threshold
    )
    return StateDeterminationResult(
        fit=final, phase1=history, merges=merges, algorithm=algorithm
    )


def determine_states_iupma(
    X: np.ndarray,
    y: np.ndarray,
    probing: np.ndarray,
    variable_names: tuple[str, ...],
    config: StatesConfig = StatesConfig(),
) -> StateDeterminationResult:
    """Algorithm 3.1 with the straightforward uniform partition."""
    probing_arr = np.asarray(probing, dtype=float).reshape(-1)
    cmin = float(probing_arr.min())
    cmax = float(probing_arr.max())

    def partitioner(m: int) -> Optional[ContentionStates]:
        if m > 1 and cmin == cmax:
            return None
        return uniform_partition(cmin, cmax, m)

    return determine_states(
        X, y, probing_arr, variable_names, partitioner, config, algorithm="iupma"
    )
