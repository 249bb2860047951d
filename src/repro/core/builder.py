"""End-to-end cost-model development: the multi-states query sampling method.

Pipeline (paper §4):

1. classify local queries (:mod:`repro.core.classification`);
2. draw a sample of queries sized per Proposition 4.1
   (:mod:`repro.core.sampling`);
3. run them in the dynamic environment, pairing each execution with a
   probing-query cost;
4. determine the contention states — IUPMA or ICMA — jointly with a
   first qualitative fit over the basic variables;
5. select variables with the mixed backward/forward procedure;
6. package the final fit as a :class:`~repro.core.model.MultiStateCostModel`
   ready for the MDBS catalog.

The *static query sampling method* is the one-state special case
(``algorithm="static"``): run it on samples from a static environment
for the paper's Static Approach 1, or on dynamic samples for Static
Approach 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..engine.database import LocalDatabase
from ..engine.query import Query
from .classification import QueryClass
from .icma import determine_states_icma
from .iupma import StateHistory, StatesConfig, determine_states_iupma
from .model import MultiStateCostModel
from .partition import ContentionStates
from .probing import ProbingQuery, default_probing_query
from .sampling import SamplingPlan, collect_observations, recommended_sample_size
from .selection import SelectionConfig, SelectionResult, select_variables
from .strategy import DEFAULT_STRATEGY, resolve_strategy
from .variables import Sample, check_observations

ALGORITHMS = ("iupma", "icma", "static")


@dataclass
class BuilderConfig:
    """All tunables of the pipeline, with the paper-calibrated defaults."""

    states: StatesConfig = field(default_factory=StatesConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    sampling: SamplingPlan = field(default_factory=SamplingPlan)
    #: Secondary-variable allowance in the sizing rule (paper eq. (4)).
    secondary_allowance: int = 2
    #: Anticipated maximum state count used for sizing the sample.
    sizing_states: int = 6


@dataclass
class BuildOutcome:
    """A derived model plus everything produced along the way.

    ``selection`` and ``determination`` are derivation provenance;
    ``determination`` is ``None`` for the static algorithm, which has
    one state and nothing to partition.  It is the state search's
    history only: the fit it ended with is superseded by
    ``selection.fit``, so its arrays are not kept.
    """

    model: MultiStateCostModel
    observations: Sample
    selection: SelectionResult
    determination: StateHistory | None
    #: Real (wall-clock) seconds spent in each pipeline phase, in
    #: pipeline order — the model's derivation cost.
    timings: dict[str, float] = field(default_factory=dict)


class CostModelBuilder:
    """Derives cost models for one local database system."""

    def __init__(
        self,
        database: LocalDatabase,
        probe: ProbingQuery | None = None,
        config: BuilderConfig | None = None,
    ) -> None:
        self.database = database
        self.probe = probe or default_probing_query(database)
        self.config = config or BuilderConfig()

    # -- sizing ---------------------------------------------------------

    def sample_size(self, query_class: QueryClass) -> int:
        """Sample size per the paper's sizing rule (eq. (4))."""
        return recommended_sample_size(
            query_class.variables,
            self.config.sizing_states,
            self.config.secondary_allowance,
        )

    # -- collection ---------------------------------------------------------

    def collect(self, queries: Sequence[Query | str]) -> Sample:
        """Run sample queries, pairing each with a probing cost."""
        with obs.span("build.sampling", database=self.database.name) as sp:
            observations = collect_observations(
                self.database, queries, self.probe, self.config.sampling
            )
            if sp.recording:
                sp.set_attribute("n_observations", len(observations))
        return observations

    # -- model development ------------------------------------------------------

    def build_from_observations(
        self,
        observations: Sample,
        query_class: QueryClass,
        algorithm: str = "iupma",
        strategy: str = DEFAULT_STRATEGY,
    ) -> BuildOutcome:
        """Steps 4–6 of the pipeline over pre-collected observations.

        *strategy* names the model form the fit ships as (see
        :mod:`repro.core.strategy`); ``mlr.ols`` is the paper's method.
        """
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
        with obs.span(
            "build.derive", class_label=query_class.label, algorithm=algorithm
        ):
            return self._derive(observations, query_class, algorithm, strategy)

    def _derive(
        self,
        observations: Sample,
        query_class: QueryClass,
        algorithm: str,
        strategy: str,
    ) -> BuildOutcome:
        form_strategy = resolve_strategy(strategy)
        timings: dict[str, float] = {}
        variables = query_class.variables
        check_observations(observations, variables.all_names)
        columns = observations.values
        y = observations.cost
        probing = observations.probing_cost

        phase_started = time.perf_counter()
        determination: StateHistory | None = None
        with obs.span("build.partitioning", algorithm=algorithm) as sp:
            if algorithm == "static":
                states = ContentionStates(float(probing.min()), float(probing.max()))
            else:
                X_basic = observations.matrix(variables.basic)
                determine = (
                    determine_states_iupma
                    if algorithm == "iupma"
                    else determine_states_icma
                )
                result = determine(
                    X_basic, y, probing, variables.basic, self.config.states
                )
                states, determination = result.states, result.history()
            if sp.recording:
                sp.set_attribute("num_states", states.num_states)
        timings["partitioning"] = time.perf_counter() - phase_started

        phase_started = time.perf_counter()
        with obs.span("build.variable_selection") as sp:
            selection = select_variables(
                columns,
                y,
                probing,
                variables.basic,
                variables.secondary,
                states,
                self.config.states.form,
                self.config.selection,
            )
            if sp.recording:
                sp.set_attribute("selected", list(selection.variables))
        timings["variable_selection"] = time.perf_counter() - phase_started

        # Qualitative provenance: every model conditions on the paper's
        # contention state; when the site simulates a memory hierarchy,
        # the observed buffer-hit state is a second qualitative variable
        # (it reaches the fit through the probing costs — the probe runs
        # through the same pool — and is recorded per sample query).
        qualitative = ["contention_state"]
        hit_states = (
            []
            if observations.buffer_hit_state is None
            else sorted(set(observations.buffer_hit_state.tolist()))
        )
        if self.database.buffer_pool is not None or hit_states:
            qualitative.append("buffer_hit_state")

        phase_started = time.perf_counter()
        with obs.span("build.fitting"):
            model = MultiStateCostModel.from_fit(
                selection.fit,
                class_label=query_class.label,
                family=query_class.family,
                algorithm=algorithm,
                database=self.database.name,
                probe=self.probe.describe(),
                qualitative_variables=qualitative,
                observed_buffer_hit_states=hit_states,
                # Training means of the selected variables: a representative
                # query for diagnostics (e.g. per-state cost curves).
                variable_means={
                    name: float(np.mean(columns[name]))
                    for name in selection.variables
                },
                selection_steps=[
                    {"action": s.action, "variable": s.variable, "detail": s.detail}
                    for s in selection.steps
                ],
                state_history=(
                    [
                        {
                            "num_states": r.num_states,
                            "r_squared": r.r_squared,
                            "standard_error": r.standard_error,
                            "accepted": r.accepted,
                        }
                        for r in determination.phase1
                    ]
                    if determination is not None
                    else []
                ),
            )
            # The model form is a pluggable strategy: the default (OLS)
            # finalize is the identity, keeping the paper's artifact
            # byte-identical; online forms re-derive coefficients from
            # the same selected design.
            model = form_strategy.finalize(model, selection.fit)
        timings["fitting"] = time.perf_counter() - phase_started
        return BuildOutcome(
            model=model,
            observations=observations,
            selection=selection,
            determination=determination,
            timings=timings,
        )

    def build(
        self,
        query_class: QueryClass,
        queries: Sequence[Query | str],
        algorithm: str = "iupma",
    ) -> BuildOutcome:
        """The full pipeline: collect observations, then derive the model."""
        with obs.span(
            "build",
            database=self.database.name,
            class_label=query_class.label,
            algorithm=algorithm,
        ):
            sampling_started = time.perf_counter()
            observations = self.collect(queries)
            sampling_seconds = time.perf_counter() - sampling_started
            outcome = self.build_from_observations(
                observations, query_class, algorithm
            )
        outcome.timings = {"sampling": sampling_seconds, **outcome.timings}
        return outcome
