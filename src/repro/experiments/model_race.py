"""The model-form race: multi-states OLS vs online RLS/SGD under a shift.

The paper's answer to a changed contention regime is *re-derivation*:
drift detection flags the class, the maintainer samples a fresh batch
under the new regime, and a new OLS model is published (§2, and the
``drift_detection`` experiment).  The pluggable strategy layer
(:mod:`repro.core.strategy`) adds a second answer: model forms that fold
every served query's estimate-vs-actual pair straight back into their
coefficients (recursive least squares with a forgetting factor, and a
normalized-SGD variant), adapting *while serving* with no sampling batch
at all.

This experiment races the three forms over an identical calm→shift
ladder and lets the drift telemetry referee the outcome:

1. **Train once** — one observation pass per (site, class); every
   strategy derives its form from the same samples, so the racers differ
   only in how they fit, never in what they saw.
2. **Cloned universes** — each form serves the same seeded workload in
   its own identically-seeded universe through a single-worker
   :class:`~repro.serving.frontend.ServingFrontEnd` (plan cache on, so
   the (version, form) cache keying is exercised).  OLS runs with drift
   detection and the maintainer armed — its recovery path is the
   paper's re-derivation.  The online forms run with maintenance
   disarmed: their only recovery path is the per-query update fed by
   :meth:`~repro.mdbs.server.MDBSServer.execute`.
3. **Shift** — after the calm rounds the variable site's contention pins
   at 0.9, outside every derived [Cmin, Cmax] range.
4. **Referee** — :meth:`~repro.obs.quality.DriftDetector.score_recovery`
   scores each form's timeline with the same good-band floor the drift
   policy uses: how many served queries until the trailing good-band
   percentage is back over the floor.

The rendered frontier table is deterministic (simulated facts only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.builder import BuilderConfig, CostModelBuilder
from ..core.classification import G1, G3
from ..core.iupma import StatesConfig
from ..core.strategy import DEFAULT_STRATEGY, resolve_strategy
from ..engine.predicate import Comparison
from ..engine.profiles import DB2_LIKE, ORACLE_LIKE
from ..mdbs.agent import MDBSAgent
from ..mdbs.catalog import GlobalCatalog
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.server import MDBSServer
from ..obs.quality import (
    AccuracyTracker,
    DriftDetector,
    DriftPolicy,
    RecoveryScore,
)
from ..serving import ServingConfig, ServingFrontEnd
from ..workload.scenarios import make_two_site_universe
from .config import ExperimentConfig
from .report import format_table

#: The racers, in print order.  OLS is the paper's form and the control.
RACE_STRATEGIES: tuple[str, ...] = ("mlr.ols", "mlr.rls", "mlr.sgd")

TABLES = ["R1", "R2", "R3", "R4"]

#: The variable site's local selection runs every round no matter which
#: join site the optimizer picks, so its unary class is the watched
#: accuracy window (same reasoning as the drift-detection experiment).
VAR_SITE = "race_var"
STEADY_SITE = "race_steady"
WATCHED_CLASS = G1.label

#: Contention range models are derived (and calm rounds served) under,
#: and where the shift pins the variable site afterwards.
CALM_RANGE = (0.0, 0.45)
SHIFTED_LEVEL = 0.9

#: The recovery bar the referee scores against — the same good-band
#: floor the OLS arm's drift policy rebuilds on.
FLOOR_PCT = 50.0

_MODEL_CLASSES = (G1, G3)


@dataclass
class RaceRound:
    """One served round of a strategy's timeline (simulated facts only)."""

    index: int
    phase: str  # "calm" | "shifted"
    #: Trailing watched-class good-band % after this round.
    good_pct: float
    samples: int
    queries: int
    active_version: int

    def timeline_entry(self) -> dict:
        return {
            "phase": self.phase,
            "good_pct": self.good_pct,
            "samples": self.samples,
            "queries": self.queries,
        }


@dataclass
class StrategyRun:
    """One form's full calm→shift→recover ladder."""

    strategy: str
    rounds: list[RaceRound]
    score: RecoveryScore
    requests: int = 0
    completed: int = 0
    failed: int = 0
    #: Drift-published re-derivations (the OLS recovery mechanism).
    rebuilds: int = 0
    #: Per-query coefficient updates folded in (the online mechanism).
    online_updates: int = 0


@dataclass
class ModelRaceResult:
    calm_rounds: int
    shifted_rounds: int
    queries_per_round: int
    floor_pct: float
    runs: list[StrategyRun] = field(default_factory=list)

    def run(self, strategy: str) -> StrategyRun:
        for run in self.runs:
            if run.strategy == strategy:
                return run
        raise KeyError(strategy)

    @property
    def ols_queries_to_recover(self) -> int | None:
        return self.run(DEFAULT_STRATEGY).score.queries_to_recover

    def online_winners(self) -> list[str]:
        """Online forms that recovered in fewer served queries than OLS."""
        baseline = self.ols_queries_to_recover
        winners = []
        for run in self.runs:
            if run.strategy == DEFAULT_STRATEGY:
                continue
            ours = run.score.queries_to_recover
            if ours is None:
                continue
            if baseline is None or ours < baseline:
                winners.append(run.strategy)
        return winners


def _builder_config(strategy: str = DEFAULT_STRATEGY) -> BuilderConfig:
    """The drift experiment's state tuning, with a pluggable form."""
    return BuilderConfig(
        states=StatesConfig(max_states=4, min_obs_per_state=25),
        strategy=strategy,
    )


def _race_policy(gap_seconds: float) -> DriftPolicy:
    """The OLS arm's drift policy — also supplies the referee's floor."""
    return DriftPolicy(
        recent_window=16,
        min_samples=8,
        good_band_floor_pct=FLOOR_PCT,
        probe_escape_fraction=0.5,
        probe_min_readings=4,
        cooldown_seconds=2 * gap_seconds,
    )


def _make_universe(config: ExperimentConfig):
    """A fresh, identically seeded pair of race sites (one per call)."""
    return make_two_site_universe(
        names=(VAR_SITE, STEADY_SITE),
        profiles=(ORACLE_LIKE, DB2_LIKE),
        seeds=(config.seed + 31, config.seed + 32),
        scale=config.scale,
        calm_range=CALM_RANGE,
    )


def _train_payloads(config: ExperimentConfig) -> dict[str, dict]:
    """One registry payload per racer, from a single observation pass."""
    var, steady = _make_universe(config)
    catalogs = {name: GlobalCatalog() for name in RACE_STRATEGIES}
    for site in (var, steady):
        for catalog in catalogs.values():
            catalog.register_site(site.name)
        builder = CostModelBuilder(site.database, config=_builder_config())
        for query_class in _MODEL_CLASSES:
            queries = site.generator.queries_for(
                query_class,
                config.train_count(query_class.family),
                tables=TABLES,
            )
            observations = builder.collect(queries)
            for name, catalog in catalogs.items():
                outcome = builder.build_from_observations(
                    observations, query_class, "iupma", strategy=name
                )
                catalog.store_cost_model(site.name, outcome.model)
    return {name: catalog.export_models() for name, catalog in catalogs.items()}


def _make_workload(
    config: ExperimentConfig, rounds: int, per_round: int
) -> list[list[GlobalJoinQuery]]:
    """The identical per-round query batches every racer serves.

    The variable site is always the left side, so its local selection
    feeds the watched accuracy window every query.
    """
    rng = np.random.default_rng(config.seed + 77)
    workload = []
    for _ in range(rounds):
        batch = []
        for _ in range(per_round):
            left_table = TABLES[int(rng.integers(0, len(TABLES)))]
            remaining = [t for t in TABLES if t != left_table]
            right_table = remaining[int(rng.integers(0, len(remaining)))]
            batch.append(
                GlobalJoinQuery(
                    VAR_SITE,
                    left_table,
                    STEADY_SITE,
                    right_table,
                    "a4",
                    "a4",
                    (f"{left_table}.a1", f"{right_table}.a2"),
                    left_predicate=Comparison(
                        "a3", "<", int(rng.integers(600, 950))
                    ),
                    right_predicate=Comparison(
                        "a7", "<", int(rng.integers(35000, 48000))
                    ),
                )
            )
        workload.append(batch)
    return workload


def _run_strategy(
    strategy: str,
    config: ExperimentConfig,
    payload: dict,
    workload: list[list[GlobalJoinQuery]],
    calm_rounds: int,
    shifted_rounds: int,
    gap_seconds: float,
) -> StrategyRun:
    """One racer's ladder in its own cloned universe."""
    var, steady = _make_universe(config)
    tracker = AccuracyTracker(probe_window_size=8, export=False)
    # A sub-round probe TTL gives every round a fresh contention reading
    # (requests within the round share it) — the loadgen tuning.
    server = MDBSServer(accuracy=tracker, probe_ttl=gap_seconds / 4.0)
    for site in (var, steady):
        server.register_agent(MDBSAgent(site.database))
    server.catalog.import_models(payload)
    registry = server.catalog.registry

    online = resolve_strategy(strategy).supports_online_update
    if not online:
        # The paper's arm: drift detection + maintainer re-derivation is
        # the only recovery path.  Online arms get neither — their only
        # path is the per-query update inside execute().
        agent = server.agents[var.name]
        server.configure_maintenance(
            var.name,
            builder=CostModelBuilder(
                agent.database,
                probe=agent.probe,
                config=_builder_config(strategy),
            ),
            drift=_race_policy(gap_seconds),
        )
        for query_class in _MODEL_CLASSES:
            server.register_model_class(
                var.name,
                query_class,
                lambda n, s=var, qc=query_class: s.generator.queries_for(
                    qc, n, tables=TABLES
                ),
                sample_count=config.train_count(query_class.family),
                build_now=False,
                strategy=strategy,
            )

    per_round = len(workload[0]) if workload else 0
    # ~3 rounds of watched-class samples: long enough to be stable,
    # short enough that recovery shows while the shift is still serving.
    window = max(6, 3 * per_round)
    serving = ServingConfig(plan_cache=True)
    rounds: list[RaceRound] = []
    run = StrategyRun(strategy=strategy, rounds=rounds, score=None)
    with ServingFrontEnd(server, serving) as frontend:
        for index in range(calm_rounds + shifted_rounds):
            phase = "calm" if index < calm_rounds else "shifted"
            if index == calm_rounds:
                var.load_builder.constant(SHIFTED_LEVEL)
            var.environment.advance(gap_seconds)
            steady.environment.advance(gap_seconds)
            for query in workload[index]:
                run.requests += 1
                ticket = frontend.serve([query])[0]
                if ticket.ok:
                    run.completed += 1
                else:
                    run.failed += 1
            if not online:
                server.maintain()
            stats = tracker.recent_stats(var.name, WATCHED_CLASS, window)
            rounds.append(
                RaceRound(
                    index=index,
                    phase=phase,
                    good_pct=stats.pct_good,
                    samples=stats.count,
                    queries=len(workload[index]),
                    active_version=registry.active_version(
                        var.name, WATCHED_CLASS
                    ).version,
                )
            )

    for site_name, label in registry.keys():
        entry = registry.active_version(site_name, label)
        if entry.provenance is not None:
            if entry.provenance.trigger is not None:
                run.rebuilds += 1
            run.online_updates += entry.provenance.online_updates
    referee = DriftDetector(_race_policy(gap_seconds))
    run.score = referee.score_recovery(
        [r.timeline_entry() for r in rounds], floor_pct=FLOOR_PCT
    )
    return run


def run_model_race(
    config: ExperimentConfig | None = None,
    calm_rounds: int = 8,
    shifted_rounds: int = 14,
    queries_per_round: int = 3,
    gap_seconds: float = 600.0,
    strategies: tuple[str, ...] = RACE_STRATEGIES,
) -> ModelRaceResult:
    """Train once, then run every form over the identical ladder."""
    config = config or ExperimentConfig()
    payloads = _train_payloads(config)
    workload = _make_workload(
        config, calm_rounds + shifted_rounds, queries_per_round
    )
    result = ModelRaceResult(
        calm_rounds=calm_rounds,
        shifted_rounds=shifted_rounds,
        queries_per_round=queries_per_round,
        floor_pct=FLOOR_PCT,
    )
    for strategy in strategies:
        result.runs.append(
            _run_strategy(
                strategy,
                config,
                payloads[strategy],
                workload,
                calm_rounds,
                shifted_rounds,
                gap_seconds,
            )
        )
    return result


def render_model_race(result: ModelRaceResult) -> str:
    """The accuracy-vs-recovery frontier (deterministic; no wall clock)."""
    headers = [
        "form",
        "served",
        "failed",
        "calm good %",
        "degraded",
        "recovered",
        "queries to recover",
        "rebuilds",
        "online updates",
    ]
    rows = []
    for run in result.runs:
        score = run.score
        rows.append(
            (
                run.strategy,
                run.completed,
                run.failed,
                score.calm_good_pct,
                "-" if score.degraded_round is None else score.degraded_round,
                "never"
                if score.recovered_round is None
                else score.recovered_round,
                "-"
                if score.queries_to_recover is None
                else score.queries_to_recover,
                run.rebuilds,
                run.online_updates,
            )
        )
    table = format_table(
        headers,
        rows,
        title=(
            f"Model-form race: {result.calm_rounds} calm + "
            f"{result.shifted_rounds} shifted rounds, "
            f"{result.queries_per_round} queries/round, "
            f"floor {result.floor_pct:.0f}% good"
        ),
    )
    lines = [table, ""]
    baseline = result.ols_queries_to_recover
    if baseline is None:
        lines.append("mlr.ols never recovered within the ladder")
    else:
        lines.append(
            f"mlr.ols (re-derivation) recovered after {baseline} served queries"
        )
    winners = result.online_winners()
    if winners:
        lines.append(
            "online forms beating re-derivation: " + ", ".join(winners)
        )
    else:
        lines.append("no online form beat re-derivation")
    return "\n".join(lines)
