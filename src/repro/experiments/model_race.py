"""The model-form race: multi-states OLS vs online RLS under a shift.

The paper's answer to a changed contention regime is *re-derivation*:
a drift rule flags the class, the model lifecycle samples a fresh batch
under the new regime, and a new OLS model is published (§2, and the
``drift_detection`` experiment).  The pluggable strategy layer
(:mod:`repro.core.strategy`) adds a second answer: recursive least
squares with a forgetting factor, which folds every served query's
estimate-vs-actual pair straight back into its coefficients, adapting
*while serving* with no sampling batch at all.

This experiment races the two forms over an identical calm→shift
ladder and referees the outcome:

1. **Train once** — one observation pass per (site, class); every
   strategy derives its form from the same samples, so the racers differ
   only in how they fit, never in what they saw.
2. **Cloned universes** — each form serves the same seeded workload in
   its own identically-seeded universe through a single-worker
   :class:`~repro.serving.frontend.ServingFrontEnd` (plan cache on).
   OLS runs with the drift rules and re-derivation armed — its recovery
   path is the paper's.  The online form runs with neither: its only
   recovery path is the per-query update fed by
   :meth:`~repro.mdbs.server.MDBSServer.execute`.
3. **Shift** — after the calm rounds the variable site's contention pins
   at 0.9, outside every derived [Cmin, Cmax] range.
4. **Referee** — :func:`score_recovery` scores each form's timeline
   against the good-band floor the drift rules use: how many served
   queries until the trailing good-band percentage is back over it.

The rendered frontier table is deterministic (simulated facts only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.classification import G1, G3
from ..core.strategy import DEFAULT_STRATEGY, resolve_strategy
from ..engine.profiles import DB2_LIKE, ORACLE_LIKE
from ..loadgen.worker import train_model_payloads
from ..mdbs.agent import MDBSAgent
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.lifecycle import GOOD_BAND_FLOOR_PCT
from ..mdbs.server import MDBSServer
from ..obs.quality import AccuracyTracker
from ..serving import ServingConfig, ServingFrontEnd
from ..workload.scenarios import make_two_site_universe, round_query
from .config import ExperimentConfig
from .drift_detection import builder_config, drift_policy
from .report import format_table

#: The racers, in print order.  OLS is the paper's form and the control.
RACE_STRATEGIES: tuple[str, ...] = ("mlr.ols", "mlr.rls")

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
#: floor the OLS arm's drift rules rebuild on.
FLOOR_PCT = GOOD_BAND_FLOOR_PCT


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


@dataclass(frozen=True)
class RecoveryScore:
    """How one model form weathered a regime shift (the race verdict).

    ``queries_to_recover`` is the number of served queries from the
    shift until the trailing good-band percentage climbed back over the
    floor (None = never recovered).
    """

    calm_good_pct: float
    shift_round: int | None
    degraded_round: int | None
    recovered_round: int | None
    queries_to_recover: int | None
    floor_pct: float


def score_recovery(
    timeline: Iterable[Mapping], floor_pct: float = FLOOR_PCT
) -> RecoveryScore:
    """Score one model form's shift recovery from a round timeline.

    *timeline* is a sequence of per-round mappings with keys ``phase``
    ("calm" before the shift, anything else after), ``good_pct``
    (trailing good-band percentage after the round), ``samples``
    (samples behind that percentage) and ``queries`` (queries served in
    the round).

    A form that never dips under the floor after the shift recovers in
    0 queries — staying in band through the shift is the best possible
    outcome, not a scoring gap.
    """
    rounds = list(timeline)
    shift_round: int | None = None
    degraded_round: int | None = None
    recovered_round: int | None = None
    queries_to_recover: int | None = None
    calm_pcts: list[float] = []
    served_since_shift = 0
    for index, entry in enumerate(rounds):
        phase = entry.get("phase", "calm")
        good_pct = float(entry.get("good_pct", 0.0))
        samples = int(entry.get("samples", 0))
        queries = int(entry.get("queries", 0))
        if phase == "calm":
            if samples > 0:
                calm_pcts.append(good_pct)
            continue
        if shift_round is None:
            shift_round = index
        if recovered_round is not None:
            continue
        served_since_shift += queries
        if samples <= 0:
            continue
        if good_pct < floor_pct:
            if degraded_round is None:
                degraded_round = index
            continue
        if degraded_round is not None:
            # Back over the floor with real samples, post-dip.
            recovered_round = index
            queries_to_recover = served_since_shift
    if (
        shift_round is not None
        and degraded_round is None
        and any(int(e.get("samples", 0)) > 0 for e in rounds[shift_round:])
    ):
        # Never dipped under the floor after the shift: staying in band
        # through it is recovery in zero served queries.
        recovered_round = shift_round
        queries_to_recover = 0
    return RecoveryScore(
        calm_good_pct=sum(calm_pcts) / len(calm_pcts) if calm_pcts else 0.0,
        shift_round=shift_round,
        degraded_round=degraded_round,
        recovered_round=recovered_round,
        queries_to_recover=queries_to_recover,
        floor_pct=floor_pct,
    )


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


def _make_universe(config: ExperimentConfig):
    """A fresh, identically seeded pair of race sites (one per call)."""
    return make_two_site_universe(
        names=(VAR_SITE, STEADY_SITE),
        profiles=(ORACLE_LIKE, DB2_LIKE),
        seeds=(config.seed + 31, config.seed + 32),
        scale=config.scale,
        calm_range=CALM_RANGE,
    )


def _make_workload(
    config: ExperimentConfig, rounds: int, per_round: int
) -> list[list[GlobalJoinQuery]]:
    """The identical per-round query batches every racer serves."""
    rng = np.random.default_rng(config.seed + 77)
    return [
        [round_query(VAR_SITE, STEADY_SITE, TABLES, rng) for _ in range(per_round)]
        for _ in range(rounds)
    ]


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
        # The paper's arm: drift rules + re-derivation are the only
        # recovery path.  The online arm gets neither — its only path is
        # the per-query update inside execute().
        server.register_model_classes(
            var.name,
            (G1, G3),
            lambda query_class, n: var.generator.queries_for(
                query_class, n, tables=TABLES
            ),
            builder_config=builder_config(),
            sample_count=lambda query_class: config.train_count(query_class.family),
            drift=drift_policy(gap_seconds),
            build_now=False,
        )

    per_round = len(workload[0]) if workload else 0
    # ~3 rounds of watched-class samples: long enough to be stable,
    # short enough that recovery shows while the shift is still serving.
    window = max(6, 3 * per_round)
    # Racers share one process: a per-strategy prefix keeps their
    # requests' trace ids apart in one span file.
    serving = ServingConfig(plan_cache=True, trace_id_prefix=f"{strategy}-")
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
    run.score = score_recovery([r.timeline_entry() for r in rounds])
    return run


def run_model_race(
    config: ExperimentConfig | None = None,
    calm_rounds: int = 8,
    shifted_rounds: int = 14,
    queries_per_round: int = 3,
    gap_seconds: float = 600.0,
) -> ModelRaceResult:
    """Train once, then run every form over the identical ladder."""
    config = config or ExperimentConfig()
    payloads = train_model_payloads(
        config, RACE_STRATEGIES, _make_universe(config), TABLES
    )
    workload = _make_workload(
        config, calm_rounds + shifted_rounds, queries_per_round
    )
    result = ModelRaceResult(
        calm_rounds=calm_rounds,
        shifted_rounds=shifted_rounds,
        queries_per_round=queries_per_round,
        floor_pct=FLOOR_PCT,
    )
    for strategy in RACE_STRATEGIES:
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
