"""The MDBS global server: the CORDS-style front end of Figure 3.

Registers per-site agents, maintains the global catalog (schema facts +
a versioned cost-model registry), optimizes global queries with the
:class:`~repro.mdbs.optimizer.GlobalQueryOptimizer`, and executes the
chosen plan for real: local component selections at each site, shipping
of one intermediate over the modeled network, and the join over
materialized temporaries at the join site.

The server also owns the serving side of the model lifecycle:

* one :class:`~repro.mdbs.optimizer.GlobalQueryOptimizer`, and the
  :class:`~repro.mdbs.probing_service.ProbingService` it probes through
  (``probe_ttl`` controls the cache; 0 = always probe afresh);
  :meth:`optimize` is the one place a global plan is chosen;
* an :class:`~repro.obs.quality.AccuracyTracker` that every execution
  feeds with each plan component's (estimate, observed) pair, keyed by
  (site, class, contention state);
* a :class:`~repro.mdbs.lifecycle.ModelLifecycle`, which decides every
  re-derivation (:meth:`register_model_classes` puts classes under it).
  :meth:`maintain` publishes each rebuilt model as a new registry
  version whose provenance names the triggering event; old versions
  stay available for :meth:`rollback_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .. import obs
from ..core.builder import BuildOutcome, BuilderConfig, CostModelBuilder
from ..core.classification import QueryClass
from ..core.model import MultiStateCostModel
from ..core.strategy import CostModelStrategy, OnlineSample, model_form, strategy_for
from ..engine.query import JoinQuery
from ..obs.quality import AccuracyTracker, DriftEvent
from .agent import MDBSAgent
from .catalog import GlobalCatalog
from .gquery import GlobalJoinQuery
from .lifecycle import MAINTENANCE_RULES, DriftPolicy, ModelLifecycle, QuerySource
from .network import NetworkModel
from .optimizer import CostEstimate, GlobalPlan, GlobalQueryOptimizer
from .probing_service import ProbingService
from .registry import (
    CostModelRegistryError,
    ModelProvenance,
    ModelVersion,
    config_fingerprint,
)

_TEMP_LEFT = "_g_left"
_TEMP_RIGHT = "_g_right"


def _estimate_at(plan: GlobalPlan, index: int) -> CostEstimate | None:
    """The plan component estimate a step at *index* realizes, if any."""
    estimates = plan.estimates
    return estimates[index] if index < len(estimates) else None


@dataclass
class StepTiming:
    """Observed elapsed time of one plan step."""

    description: str
    seconds: float


@dataclass
class _OnlineFormState:
    """Per-(site, class) serving-time state of an online model form."""

    version: int
    strategy: CostModelStrategy
    #: The warm-started online estimator; None when the active version's
    #: form does not update online (cached to skip re-resolution).
    updater: object | None


@dataclass
class GlobalExecution:
    """Result of executing one global query."""

    plan: GlobalPlan
    column_names: tuple[str, ...]
    rows: list[tuple]
    steps: list[StepTiming] = field(default_factory=list)

    @property
    def observed_seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def estimated_seconds(self) -> float:
        return self.plan.estimated_seconds

    @property
    def cardinality(self) -> int:
        return len(self.rows)


class MDBSServer:
    """The global level of the multidatabase system."""

    def __init__(
        self,
        network: NetworkModel | None = None,
        probe_ttl: float = 0.0,
        accuracy: AccuracyTracker | None = None,
    ) -> None:
        self.catalog = GlobalCatalog()
        self.agents: dict[str, MDBSAgent] = {}
        self.network = network or NetworkModel()
        #: Estimate-vs-actual accuracy windows, fed by every execution
        #: (and every executed probe, via the probing service).  Defaults
        #: to the process-global tracker so obs snapshots include it.
        self.accuracy = accuracy if accuracy is not None else obs.get_tracker()
        #: The probing service every state resolution reads; ttl=0 keeps
        #: the pre-lifecycle always-fresh-probe behavior.
        self.probing = ProbingService(
            self.agents, ttl=probe_ttl, tracker=self.accuracy
        )
        self.optimizer = GlobalQueryOptimizer(
            self.catalog, self.agents, self.network, probing=self.probing
        )
        self.lifecycle = ModelLifecycle(self.catalog.registry, self.accuracy)
        #: Fingerprint of each maintained site's builder config, for the
        #: provenance of the versions the lifecycle derives there.
        self._config_hashes: dict[str, str] = {}
        #: Serving-time online-form state per (site, class): the warm
        #: estimator that folds each served estimate-vs-actual sample
        #: back into the active model when its form updates online.
        self._online: dict[tuple[str, str], _OnlineFormState] = {}

    # -- registration ----------------------------------------------------

    def register_agent(self, agent: MDBSAgent) -> None:
        """Attach a local site and import its globally visible facts."""
        self.agents[agent.site] = agent
        self.catalog.register_site(agent.site)
        for facts in agent.export_table_facts():
            self.catalog.register_table(facts)

    def refresh_site_facts(self, site: str) -> None:
        """Re-import a site's schema facts (occasionally-changing factors)."""
        for facts in self.agents[site].export_table_facts():
            self.catalog.register_table(facts)

    def store_cost_model(self, site: str, model: MultiStateCostModel) -> None:
        """Publish *model* as the active version for its (site, class)."""
        self.catalog.require_site(site)
        self.catalog.registry.publish(site, model)

    # -- model lifecycle --------------------------------------------------

    def register_model_classes(
        self,
        site: str,
        classes: Sequence[QueryClass],
        queries: QuerySource,
        *,
        builder_config: BuilderConfig | None = None,
        sample_count: Callable[[QueryClass], int] | None = None,
        rebuild_period_seconds: float | None = None,
        drift: DriftPolicy | None = None,
        build_now: bool = True,
    ) -> dict[str, ModelVersion]:
        """Put *classes* at *site* under the lifecycle; their active versions.

        Each (re)build runs ``queries(query_class, n)``, with ``n =
        sample_count(query_class)`` (None sizes the sample by Proposition
        4.1), in the paper's form (``mlr.ols``).  The builder runs over
        the site's database and its probe as of this call, so a later
        swap of ``agent.probe`` (an injected outage) does not reach it.
        *rebuild_period_seconds* adds §2's periodic rebuilds to the
        catalog check; *drift* arms the drift rules at the site.  A
        second call for the same site replaces the first.

        Each initial build is published as a new version without a
        trigger.  ``build_now=False`` skips them — the load-generation
        pattern: a worker imports trained models through the registry
        payload (:meth:`~repro.mdbs.catalog.GlobalCatalog.import_models`),
        so the registry must already hold an active version per class.
        """
        agent = self.agents[site]
        builder = CostModelBuilder(agent.database, agent.probe, builder_config)
        self._config_hashes[site] = config_fingerprint(builder.config)
        self.lifecycle.watch(site, builder, queries, rebuild_period_seconds, drift)
        versions = {}
        for query_class in classes:
            outcome = self.lifecycle.register(
                site,
                query_class,
                sample_count(query_class) if sample_count else None,
                build_now,
            )
            if outcome is not None:
                self._publish(site, outcome, None)
            versions[query_class.label] = self.catalog.registry.active_version(
                site, query_class.label
            )
        return versions

    def maintain(self) -> dict[str, dict[str, BuildOutcome]]:
        """One lifecycle pass at every maintained site.

        Each rebuild the lifecycle decides is published as a new active
        version whose provenance trigger is its event (the superseded
        versions stay available for rollback).  A rebuild caused by a
        drift rule also resets that class's accuracy windows, so
        recovery is measured on the new model alone.  Every site that
        rebuilt re-imports its schema facts and drops its cached probing
        reading, so the next optimization sees the environment as it
        is now.
        """
        results: dict[str, dict[str, BuildOutcome]] = {
            site: {} for site in sorted(self._config_hashes)
        }
        with obs.span("mdbs.maintain") as sp:
            for site, event, outcome in self.lifecycle.rebuilds():
                self._publish(site, outcome, event)
                results[site][event.class_label] = outcome
                if event.rule not in MAINTENANCE_RULES:
                    self.accuracy.reset(site, event.class_label)
            for site, rebuilt in results.items():
                if rebuilt:
                    self.refresh_site_facts(site)
                    self.probing.invalidate(site)
            if sp.recording:
                sp.set_attribute(
                    "rebuilt",
                    {site: sorted(rebuilt) for site, rebuilt in results.items()},
                )
        obs.inc("mdbs.maintenance_runs")
        return results

    def rollback_model(self, site: str, class_label: str) -> ModelVersion:
        """Serve the previously active model version again."""
        return self.catalog.registry.rollback(site, class_label)

    def _publish(
        self, site: str, outcome: BuildOutcome, event: DriftEvent | None
    ) -> ModelVersion:
        provenance = ModelProvenance.from_model(
            outcome.model,
            derived_at=self.agents[site].database.environment.now,
            config_hash=self._config_hashes[site],
            trigger=None if event is None else event.describe(),
        )
        return self.catalog.registry.publish(site, outcome.model, provenance)

    # -- optimization -----------------------------------------------------------

    def optimize(self, query: GlobalJoinQuery) -> tuple[GlobalPlan, list[GlobalPlan]]:
        """The cheapest join site for *query*, and every candidate scored."""
        with obs.span("mdbs.optimize") as sp:
            plan, candidates = self.optimizer.choose(query)
            if sp.recording:
                sp.set_attributes(
                    join_site=plan.join_site,
                    estimated_seconds=plan.estimated_seconds,
                    candidates=len(candidates),
                )
        return plan, candidates

    # -- execution -----------------------------------------------------------------

    def execute(
        self, query: GlobalJoinQuery, plan: GlobalPlan | None = None
    ) -> GlobalExecution:
        """Execute *query* (optimizing first unless a plan is supplied)."""
        with obs.span("mdbs.execute") as root:
            if root.recording:
                root.set_attributes(
                    left=f"{query.left_site}.{query.left_table}",
                    right=f"{query.right_site}.{query.right_table}",
                )
            if plan is None:
                plan, _ = self.optimize(query)
            execution = self._execute_plan(query, plan)
            self._record_accuracy(plan, execution)
            obs.inc("mdbs.global_queries")
            if root.recording:
                root.set_attributes(
                    join_site=plan.join_site,
                    estimated_seconds=execution.estimated_seconds,
                    observed_seconds=execution.observed_seconds,
                    cardinality=execution.cardinality,
                )
        return execution

    def _record_accuracy(self, plan: GlobalPlan, execution: GlobalExecution) -> None:
        """Feed each model-backed estimate/observation pair to the tracker.

        ``plan.estimates`` and ``execution.steps`` are built in the same
        component order (left select, right select, ship, join); the
        ship component carries no cost model (``class_label is None``)
        and is skipped.
        """
        with obs.span("mdbs.accuracy") as sp:
            recorded = 0
            states: list[str] = []
            if len(plan.estimates) == len(execution.steps):
                for estimate, step in zip(plan.estimates, execution.steps):
                    if estimate.class_label is None or estimate.site is None:
                        continue
                    if estimate.state is None:
                        continue
                    agent = self.agents[estimate.site]
                    state_key: int | tuple = estimate.state
                    hit_state = agent.buffer_hit_state()
                    if hit_state is not None:
                        # Sites simulating a memory hierarchy key their
                        # accuracy windows on the composite (contention,
                        # buffer-hit) state, so drift in either
                        # qualitative variable is visible.
                        state_key = (estimate.state, hit_state)
                    self.accuracy.record(
                        estimate.site,
                        estimate.class_label,
                        state_key,
                        predicted=estimate.seconds,
                        actual=step.seconds,
                        at_time=agent.database.environment.now,
                    )
                    recorded += 1
                    if sp.recording:
                        states.append(
                            f"{estimate.site}/{estimate.class_label}={state_key}"
                        )
                    # The same (estimate, observation) pair the tracker
                    # windows is what online model forms learn from:
                    # RLS models fold it into their coefficients
                    # right here, per served query.
                    self._online_update(estimate, step.seconds)
            if sp.recording:
                sp.set_attributes(samples=recorded, states=",".join(states))

    def model_tag(self, site: str, class_label: str) -> tuple | None:
        """(version, model form) of the active model for (site, class),
        None when it has none; the plan span's ``models`` attribute."""
        try:
            entry = self.catalog.registry.active_version(site, class_label)
        except CostModelRegistryError:
            return None
        return (entry.version, model_form(entry.model))

    def _online_update(self, estimate: CostEstimate, actual: float) -> None:
        """Fold one served estimate-vs-actual sample into an online form.

        No-op for the default batch-OLS form.  For ``mlr.rls`` models
        this updates the *active* model's coefficients in place (every
        optimizer sees the adapted form on the next estimate) and
        counts the update in the version's provenance.
        """
        site, label = estimate.site, estimate.class_label
        registry = self.catalog.registry
        if estimate.values is None or estimate.state is None:
            return
        if site is None or label is None or not registry.has_model(site, label):
            return
        entry = registry.active_version(site, label)
        key = (site, label)
        state = self._online.get(key)
        if state is None or state.version != entry.version:
            strategy = strategy_for(entry.model)
            state = _OnlineFormState(
                version=entry.version,
                strategy=strategy,
                updater=(
                    strategy.make_updater(entry.model)
                    if strategy.supports_online_update
                    else None
                ),
            )
            self._online[key] = state
        if state.updater is None:
            return
        sample = OnlineSample(
            values=estimate.values, state=estimate.state, actual=actual
        )
        if state.strategy.update(entry.model, sample, state.updater) is not None:
            registry.record_online_update(site, label, entry.version)

    def _execute_plan(
        self, query: GlobalJoinQuery, plan: GlobalPlan
    ) -> GlobalExecution:
        components = plan.components
        left_agent = self.agents[query.left_site]
        right_agent = self.agents[query.right_site]

        steps: list[StepTiming] = []
        with obs.span("mdbs.step.select") as sp:
            if sp.recording:
                sp.set_attribute("site", query.left_site)
            left_result = left_agent.execute(components.left)
            self._record_step(
                steps,
                sp,
                f"select {query.left_table} at {query.left_site}",
                left_result.elapsed,
                _estimate_at(plan, 0),
            )
        with obs.span("mdbs.step.select") as sp:
            if sp.recording:
                sp.set_attribute("site", query.right_site)
            right_result = right_agent.execute(components.right)
            self._record_step(
                steps,
                sp,
                f"select {query.right_table} at {query.right_site}",
                right_result.elapsed,
                _estimate_at(plan, 1),
            )

        if plan.join_site == "right":
            join_agent, shipped, local = right_agent, left_result, right_result
        else:
            join_agent, shipped, local = left_agent, right_result, left_result
        with obs.span("mdbs.step.ship") as sp:
            if sp.recording:
                sp.set_attribute("to_site", join_agent.site)
            transfer = self.network.transfer_seconds(shipped.result.table_length)
            self._record_step(
                steps,
                sp,
                f"ship {shipped.result.cardinality} tuples to {join_agent.site}",
                transfer,
                _estimate_at(plan, 2),
            )

        left_facts = self.catalog.table(query.left_site, query.left_table)
        right_facts = self.catalog.table(query.right_site, query.right_table)
        left_widths = [left_facts.column_widths[c] for c in components.left.columns]
        right_widths = [right_facts.column_widths[c] for c in components.right.columns]
        # The results go over as they are: by column, no tuple is built
        # for an intermediate that only the join reads.
        join_agent.create_temp_table(
            _TEMP_LEFT, components.left.columns, left_widths, left_result.result
        )
        join_agent.create_temp_table(
            _TEMP_RIGHT, components.right.columns, right_widths, right_result.result
        )
        try:
            join_query = JoinQuery(
                _TEMP_LEFT,
                _TEMP_RIGHT,
                components.left.columns[components.left_join_position],
                components.right.columns[components.right_join_position],
            )
            with obs.span("mdbs.step.join") as sp:
                if sp.recording:
                    sp.set_attribute("site", join_agent.site)
                join_result = join_agent.execute(join_query)
                self._record_step(
                    steps,
                    sp,
                    f"join at {join_agent.site}",
                    join_result.elapsed,
                    _estimate_at(plan, 3),
                )
            column_names, rows = self._project_output(
                query, components, join_result
            )
        finally:
            join_agent.drop_temp_table(_TEMP_LEFT)
            join_agent.drop_temp_table(_TEMP_RIGHT)

        return GlobalExecution(
            plan=plan, column_names=column_names, rows=rows, steps=steps
        )

    @staticmethod
    def _record_step(
        steps: list[StepTiming],
        span,
        description: str,
        seconds: float,
        estimate: CostEstimate | None = None,
    ) -> None:
        """One plan step: a StepTiming for callers and span attributes
        for the trace.

        The span's own duration is real wall-clock work; *seconds* is the
        step's *simulated* elapsed time (what the cost models predict).
        *estimate* is the plan component the step realizes — its
        estimated seconds and contention state land on the span, so a
        trace shows estimate-vs-actual per step, not just per plan.
        """
        steps.append(StepTiming(description, seconds))
        if span.recording:
            span.set_attributes(description=description, simulated_seconds=seconds)
            if estimate is not None:
                span.set_attribute("estimated_seconds", estimate.seconds)
                if estimate.state is not None:
                    span.set_attribute("state", estimate.state)

    def _project_output(self, query, components, join_result):
        """Map temp-qualified join output back to the requested columns.

        Each column is picked from its operand, not by table name: the
        all-columns output of two operands that share one (``R1`` at
        two sites) takes the left operand's columns, then the right's.
        """
        if query.columns:
            wanted = query.columns
            sources = []
            for qualified in wanted:
                table, _, column = qualified.partition(".")
                temp = _TEMP_LEFT if table == query.left_table else _TEMP_RIGHT
                sources.append(f"{temp}.{column}")
        else:
            left, right = components.left.columns, components.right.columns
            wanted = tuple(f"{query.left_table}.{c}" for c in left) + tuple(
                f"{query.right_table}.{c}" for c in right
            )
            sources = [f"{_TEMP_LEFT}.{c}" for c in left] + [f"{_TEMP_RIGHT}.{c}" for c in right]
        produced = join_result.result.column_names
        columns = join_result.result.columns()
        return wanted, list(zip(*[columns[produced.index(s)] for s in sources]))
