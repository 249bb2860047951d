"""Drift-detection experiment: does the quality telemetry close the loop?

The §2 maintenance policy reacts to *catalog* changes (cardinality,
indexes) — but the paper's frequently-changing factor can also drift
structurally: the contention regime a model was sampled under can leave
entirely (a batch window opens, a tenant moves in), and nothing in the
catalog changes.  The drift rules of the model lifecycle
(:mod:`repro.mdbs.lifecycle`), reading the model-quality telemetry
(:mod:`repro.obs.quality`), are built to catch exactly that.

The experiment scripts such a shift and measures the loop end to end:

1. **Derive** G1/G3 models at two sites under a restrained uniform load
   (contention in [0, 0.45]), with drift detection armed at the site
   that will shift;
2. **Baseline** rounds of global joins under that same load — accuracy
   lands in the §5 "good" band, no drift events;
3. **Shift**: the drifting site's load builder pins contention at 0.9 —
   outside the partitioned [Cmin, Cmax] range every model was derived
   over.  Probing costs escape the range, the ``probe_escape`` rule
   raises :class:`~repro.obs.quality.DriftEvent`\\ s, and
   :meth:`~repro.mdbs.server.MDBSServer.maintain` re-derives the
   flagged classes under the *new* regime, publishing fresh registry
   versions whose provenance records the triggering event;
4. **Recovery** rounds confirm the rebuilt models estimate well again;
5. **Counterfactual**: version 1 is re-activated, detection disarmed,
   and the same shifted load served again — the stale model's accuracy
   table shows the degradation the drift policy just repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.builder import BuilderConfig
from ..core.classification import G1, G3
from ..core.iupma import StatesConfig
from ..engine.profiles import ORACLE_LIKE
from ..mdbs.agent import MDBSAgent
from ..mdbs.lifecycle import DriftPolicy
from ..mdbs.server import MDBSServer
from ..obs.quality import AccuracyTracker, DriftEvent, WindowStats
from ..workload.scenarios import make_two_site_universe, round_query
from .config import ExperimentConfig
from .report import format_table

TABLES = ["R1", "R2", "R3", "R4", "R5"]

#: Contention range the models are derived (and the baseline served) under.
CALM_LOW, CALM_HIGH = 0.0, 0.45
#: The shifted regime — outside every derived [Cmin, Cmax] range.
SHIFTED_LEVEL = 0.9
#: Served rounds per phase, and simulated seconds between rounds.
BASELINE_ROUNDS, SHIFTED_ROUNDS, RECOVERY_ROUNDS, STALE_ROUNDS = 8, 10, 8, 10
GAP_SECONDS = 600.0

#: The model registry behind the most recent run, for obs snapshots
#: (``python -m repro.experiments --snapshot-out``).  None until a run
#: has happened in this process.
LAST_MODEL_REGISTRY = None


@dataclass
class DriftRound:
    """One served global join in the timeline."""

    index: int
    phase: str  # "baseline" | "shifted" | "recovery" | "stale"
    good_pct: float  # drift-site class aggregate after this round
    events: list[str] = field(default_factory=list)
    active_version: int = 1  # of the drift site's join class


@dataclass
class DriftDetectionResult:
    drift_site: str
    watched_class: str
    rounds: list[DriftRound] = field(default_factory=list)
    events: list[DriftEvent] = field(default_factory=list)
    #: (site, class, version, trigger) of every drift-published version.
    published: list[tuple[str, str, int, str | None]] = field(default_factory=list)
    baseline: WindowStats | None = None
    recovered: WindowStats | None = None
    stale: WindowStats | None = None

    @property
    def detection_round(self) -> int | None:
        """First round (0-based) that raised a drift event, or None."""
        for r in self.rounds:
            if r.events:
                return r.index
        return None

    @property
    def shift_round(self) -> int | None:
        for r in self.rounds:
            if r.phase == "shifted":
                return r.index
        return None

    @property
    def detection_latency_rounds(self) -> int | None:
        """Served rounds between the load shift and the first event."""
        detected, shifted = self.detection_round, self.shift_round
        if detected is None or shifted is None:
            return None
        return detected - shifted


def builder_config() -> BuilderConfig:
    """Fewer, better-identified states than the paper's default.

    At experiment sample sizes a 6-state join model leaves ~15
    observations per state, which overfits and extrapolates wildly on
    serving-time intermediates.  The model race and the load generator
    derive with it too.
    """
    return BuilderConfig(states=StatesConfig(max_states=4, min_obs_per_state=25))


def drift_policy(gap_seconds: float) -> DriftPolicy:
    """The drift rules armed at the site that will shift.

    One maintain() pass can raise events for several classes at once;
    the cooldown stops the next pass re-flagging a class whose fresh
    model has barely served yet.  The model race arms its re-deriving
    arm with the same rules.
    """
    return DriftPolicy(
        recent_window=16, min_samples=8, cooldown_seconds=2 * gap_seconds
    )


def run_drift_detection(config: ExperimentConfig | None = None) -> DriftDetectionResult:
    """Run the experiment; see the module docstring."""
    global LAST_MODEL_REGISTRY
    config = config or ExperimentConfig()
    rng = np.random.default_rng(config.seed + 55)

    # Both sites calm while models are derived and the baseline runs.
    left, right = make_two_site_universe(
        names=("drift_site", "steady_site"),
        profiles=(ORACLE_LIKE, ORACLE_LIKE),
        seeds=(config.seed + 11, config.seed + 22),
        scale=config.scale,
        calm_range=(CALM_LOW, CALM_HIGH),
    )

    # A small probe window keeps the probe_escape rule responsive at
    # experiment scale; installed globally so obs snapshots include it.
    tracker = AccuracyTracker(probe_window_size=8)
    obs.set_tracker(tracker)
    policy = drift_policy(GAP_SECONDS)

    server = MDBSServer(accuracy=tracker)
    for site in (left, right):
        server.register_agent(MDBSAgent(site.database))
    for site in (left, right):
        server.register_model_classes(
            site.name,
            (G1, G3),
            # The lifecycle re-calls this source at every rebuild,
            # sampling under the then-current environment — which is
            # the whole point of re-derivation.
            lambda query_class, n, site=site: site.generator.queries_for(
                query_class, n, tables=TABLES
            ),
            builder_config=builder_config(),
            sample_count=lambda query_class: config.train_count(query_class.family),
            # Arm drift detection only at the site that will shift; the
            # steady site is the control.
            drift=policy if site is left else None,
        )
    LAST_MODEL_REGISTRY = server.catalog.registry

    # Watch the unary class: the drift site's local selection executes
    # every round no matter which join site the optimizer picks.  (G3
    # at the drift site dries up after the rebuild — the accurate fresh
    # models steer joins *away* from the overloaded site, which is the
    # plan-quality win, but it leaves that window unfed.)
    watched = G1.label
    result = DriftDetectionResult(drift_site=left.name, watched_class=watched)

    def run_phase(phase: str, rounds: int, maintain: bool) -> None:
        for _ in range(rounds):
            index = len(result.rounds)
            before = len(tracker.drift_events)
            left.environment.advance(GAP_SECONDS)
            right.environment.advance(GAP_SECONDS)
            server.execute(round_query(left.name, right.name, TABLES, rng))
            if maintain:
                server.maintain()
            fresh = tracker.drift_events[before:]
            result.events.extend(fresh)
            result.rounds.append(
                DriftRound(
                    index=index,
                    phase=phase,
                    good_pct=tracker.stats(left.name, watched).pct_good,
                    events=[e.describe() for e in fresh],
                    active_version=server.catalog.registry.active_version(
                        left.name, watched
                    ).version,
                )
            )

    # Phase 1+2: baseline under the calm load, detection armed.
    run_phase("baseline", BASELINE_ROUNDS, maintain=True)
    result.baseline = tracker.stats(left.name, watched)

    # Phase 3: the regime shift, detection armed -> targeted rebuilds.
    left.load_builder.constant(SHIFTED_LEVEL)
    run_phase("shifted", SHIFTED_ROUNDS, maintain=True)

    # Phase 4: keep serving the shifted load on the rebuilt models.
    run_phase("recovery", RECOVERY_ROUNDS, maintain=True)
    result.recovered = tracker.stats(left.name, watched)

    registry = server.catalog.registry
    for site_name, label in registry.keys():
        entry = registry.active_version(site_name, label)
        if entry.provenance.trigger is not None:
            result.published.append(
                (site_name, label, entry.version, entry.provenance.trigger)
            )

    # Phase 5 (counterfactual): stale v1 back in service, detection
    # disarmed, same shifted load — what the loop just prevented.
    restored = []
    for site_name, label in registry.keys():
        if site_name == left.name and registry.active_version(
            site_name, label
        ).version != 1:
            restored.append((site_name, label, registry.active_version(
                site_name, label
            ).version))
            registry.activate(site_name, label, 1)
    tracker.reset()
    run_phase("stale", STALE_ROUNDS, maintain=False)
    result.stale = tracker.stats(left.name, watched)
    for site_name, label, version in restored:
        registry.activate(site_name, label, version)
    return result


def render_drift_detection(result: DriftDetectionResult) -> str:
    """The phase table plus the detection/provenance narrative."""
    phases = []
    for phase, stats in (
        ("baseline (calm load, drift armed)", result.baseline),
        ("recovery (shifted load, rebuilt models)", result.recovered),
        ("stale (shifted load, v1 models, drift off)", result.stale),
    ):
        stats = stats or WindowStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        phases.append(
            (
                phase,
                stats.count,
                stats.pct_good,
                stats.pct_very_good,
                stats.mean_relative_error,
                stats.bias,
            )
        )
    table = format_table(
        ["phase", "n", "good %", "very good %", "mean rel err", "bias"],
        phases,
        title=(
            f"Estimate accuracy for {result.drift_site}/{result.watched_class} "
            "across the drift lifecycle"
        ),
    )
    lines = [table, ""]
    latency = result.detection_latency_rounds
    if latency is None:
        lines.append("drift detection: NO event raised")
    else:
        lines.append(
            f"drift detected {latency} round(s) after the load shift "
            f"(round {result.detection_round})"
        )
    for event in result.events:
        lines.append(f"  {event.describe()}")
    for site, label, version, trigger in result.published:
        lines.append(f"published {site}/{label} v{version}  trigger: {trigger}")
    return "\n".join(lines)
