"""Plan-quality experiment: do better cost models buy better plans?

The whole point of deriving cost models is §1's last step: "Based on the
estimated local costs, the global query optimizer chooses a good
execution plan for a global query."  This experiment closes that loop.

Setup: two sites whose contention levels move *independently* — at any
moment one may be nearly idle while the other is saturated, so the right
join site genuinely depends on the current states.  Both approaches see
identical queries at identical moments:

* **multi-states** — the optimizer consults multi-states models,
  resolving each site's contention state with a fresh probing cost;
* **one-state**    — the optimizer consults one-state (Static
  Approach 2) models, which cannot tell a loaded site from an idle one.

For every round, *both* candidate plans (join left / join right) are
executed from the identical simulated state (fork-and-rewind), giving
their true costs; each approach is then charged the cost of the plan it
*chose*.  The metric is regret versus the per-round optimal plan.

:func:`run_probe_cache_quality` reuses the same harness for a serving
trade-off instead of a modeling one: both approaches consult identical
multi-states models, but one probes each site afresh every optimization
(``ttl=0``) while the other serves contention readings from the
:class:`~repro.mdbs.probing_service.ProbingService` cache within a TTL.
The comparison shows what plan quality the probe-cost savings buy away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.builder import CostModelBuilder
from ..core.classification import G1, G3
from ..engine.predicate import Comparison
from ..engine.profiles import ORACLE_LIKE
from ..mdbs.agent import MDBSAgent
from ..mdbs.catalog import GlobalCatalog
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.optimizer import GlobalQueryOptimizer
from ..mdbs.probing_service import ProbingService
from ..mdbs.server import MDBSServer
from ..workload.scenarios import make_site
from .config import ExperimentConfig
from .report import format_table

APPROACHES = ("multi-states", "one-state")
PROBE_CACHE_APPROACHES = ("fresh-probe", "cached-probe")


@dataclass
class PlanQualityRound:
    """One evaluated global query."""

    query: str
    observed_by_site: dict[str, float]
    chosen: dict[str, str]  # approach -> join site

    @property
    def best_seconds(self) -> float:
        return min(self.observed_by_site.values())

    def regret(self, approach: str) -> float:
        return self.observed_by_site[self.chosen[approach]] - self.best_seconds

    def picked_optimal(self, approach: str) -> bool:
        chosen_cost = self.observed_by_site[self.chosen[approach]]
        return chosen_cost <= self.best_seconds * 1.001


@dataclass
class PlanQualityResult:
    rounds: list[PlanQualityRound] = field(default_factory=list)
    #: Probing queries actually executed per approach (only populated by
    #: experiments where the approaches differ in probing policy).
    probes_by_approach: dict[str, int] = field(default_factory=dict)

    def total_regret(self, approach: str) -> float:
        return sum(r.regret(approach) for r in self.rounds)

    def pct_optimal(self, approach: str) -> float:
        if not self.rounds:
            return 0.0
        hits = sum(r.picked_optimal(approach) for r in self.rounds)
        return 100.0 * hits / len(self.rounds)

    def total_chosen_seconds(self, approach: str) -> float:
        return sum(r.observed_by_site[r.chosen[approach]] for r in self.rounds)

    @property
    def total_best_seconds(self) -> float:
        return sum(r.best_seconds for r in self.rounds)


def _derive_models(site, builder, tables):
    """Multi-states and one-state model pairs for G1 and G3."""
    models = {}
    for query_class, count in ((G1, 120), (G3, 130)):
        queries = site.generator.queries_for(query_class, count, tables=tables)
        observations = builder.collect(queries)
        models[(query_class.label, "multi-states")] = builder.build_from_observations(
            observations, query_class, "iupma"
        ).model
        models[(query_class.label, "one-state")] = builder.build_from_observations(
            observations, query_class, "static"
        ).model
    return models


def _make_site_pair(config: ExperimentConfig):
    """Two identical-engine sites with independently moving loads.

    Identical engines at both sites: the ONLY asymmetry the optimizer
    can exploit is the current contention — which is exactly the signal
    one-state models (or stale probe readings) cannot carry.
    """
    left = make_site(
        "left_site",
        profile=ORACLE_LIKE,
        environment_kind="uniform",
        scale=config.scale,
        seed=config.seed + 11,
    )
    right = make_site(
        "right_site",
        profile=ORACLE_LIKE,
        environment_kind="uniform",
        scale=config.scale,
        seed=config.seed + 22,
    )
    return left, right


def _run_rounds(
    server: MDBSServer,
    left,
    right,
    tables: list[str],
    optimizers: dict[str, GlobalQueryOptimizer],
    base_optimizer: GlobalQueryOptimizer,
    rounds: int,
    gap_seconds: float,
    seed: int,
) -> PlanQualityResult:
    """The shared evaluation loop: per round, execute both candidate
    plans from the identical state (fork-and-rewind) for their true
    costs, then let every approach choose from that same state."""
    rng = np.random.default_rng(seed)
    result = PlanQualityResult()
    for _ in range(rounds):
        left.environment.advance(gap_seconds)
        right.environment.advance(gap_seconds)
        left_table = tables[int(rng.integers(0, len(tables)))]
        remaining = [t for t in tables if t != left_table]
        right_table = remaining[int(rng.integers(0, len(remaining)))]
        query = GlobalJoinQuery(
            left.name,
            left_table,
            right.name,
            right_table,
            "a4",
            "a4",
            (f"{left_table}.a1", f"{right_table}.a2"),
            # Mild selections: the intermediates stay large, so the join
            # itself dominates and the join-site choice matters.
            left_predicate=Comparison("a3", "<", int(rng.integers(600, 950))),
            right_predicate=Comparison("a7", "<", int(rng.integers(35000, 48000))),
        )

        # True cost of each candidate plan, from the identical state.
        snapshot = {
            site.name: site.database.save_state() for site in (left, right)
        }
        candidates = base_optimizer.plans(query)
        observed_by_site = {}
        for plan in candidates:
            for site in (left, right):
                site.database.restore_state(snapshot[site.name])
            execution = server.execute(query, plan)
            observed_by_site[plan.join_site] = execution.observed_seconds

        # Each approach chooses from the same state.
        chosen = {}
        for approach, optimizer in optimizers.items():
            for site in (left, right):
                site.database.restore_state(snapshot[site.name])
            chosen[approach] = optimizer.choose(query)[0].join_site
        for site in (left, right):
            site.database.restore_state(snapshot[site.name])

        result.rounds.append(
            PlanQualityRound(
                query=str(query),
                observed_by_site=observed_by_site,
                chosen=chosen,
            )
        )
    return result


def run_plan_quality(
    config: ExperimentConfig | None = None,
    rounds: int = 24,
    gap_seconds: float = 900.0,
) -> PlanQualityResult:
    """Run the experiment; see the module docstring."""
    config = config or ExperimentConfig()
    tables = ["R1", "R2", "R3", "R4", "R5"]
    left, right = _make_site_pair(config)
    server = MDBSServer()
    catalogs = {}
    site_models = {}
    for site in (left, right):
        server.register_agent(MDBSAgent(site.database))
        builder = CostModelBuilder(site.database, config=config.builder)
        site_models[site.name] = _derive_models(site, builder, tables)
    for approach in APPROACHES:
        catalog = GlobalCatalog()
        # Share the schema facts; differ only in the stored cost models.
        for site in (left, right):
            catalog.register_site(site.name)
            for facts in server.agents[site.name].export_table_facts():
                catalog.register_table(facts)
            for (label, model_approach), model in site_models[site.name].items():
                if model_approach == approach:
                    catalog.registry.publish(site.name, model)
        catalogs[approach] = catalog

    optimizers = {
        approach: GlobalQueryOptimizer(catalogs[approach], server.agents)
        for approach in APPROACHES
    }
    return _run_rounds(
        server,
        left,
        right,
        tables,
        optimizers,
        base_optimizer=GlobalQueryOptimizer(catalogs["multi-states"], server.agents),
        rounds=rounds,
        gap_seconds=gap_seconds,
        seed=config.seed + 33,
    )


def run_probe_cache_quality(
    config: ExperimentConfig | None = None,
    rounds: int = 16,
    gap_seconds: float = 900.0,
    ttl: float = 1800.0,
) -> PlanQualityResult:
    """Fresh-probe vs cached-probe plan choices over identical models.

    Both approaches consult the same multi-states models; they differ
    only in the :class:`~repro.mdbs.probing_service.ProbingService` TTL.
    With ``gap_seconds=900`` and ``ttl=1800`` the cached approach serves
    a stale contention reading for roughly every other optimization —
    ``probes_by_approach`` records how many probes each one executed.
    """
    config = config or ExperimentConfig()
    tables = ["R1", "R2", "R3", "R4", "R5"]
    left, right = _make_site_pair(config)
    server = MDBSServer()
    for site in (left, right):
        server.register_agent(MDBSAgent(site.database))
        builder = CostModelBuilder(site.database, config=config.builder)
        for query_class, count in ((G1, 120), (G3, 130)):
            queries = site.generator.queries_for(query_class, count, tables=tables)
            server.store_cost_model(
                site.name, builder.build(query_class, queries, "iupma").model
            )
    services = {
        "fresh-probe": ProbingService(server.agents, ttl=0.0),
        "cached-probe": ProbingService(server.agents, ttl=ttl),
    }
    optimizers = {
        approach: GlobalQueryOptimizer(
            server.catalog, server.agents, probing=services[approach]
        )
        for approach in PROBE_CACHE_APPROACHES
    }
    result = _run_rounds(
        server,
        left,
        right,
        tables,
        optimizers,
        # A dedicated enumerator keeps the per-approach probe counts
        # clean: candidate enumeration is shared bookkeeping, not part
        # of either approach's serving cost.
        base_optimizer=GlobalQueryOptimizer(server.catalog, server.agents),
        rounds=rounds,
        gap_seconds=gap_seconds,
        seed=config.seed + 44,
    )
    result.probes_by_approach = {
        approach: sum(services[approach].probes_executed.values())
        for approach in PROBE_CACHE_APPROACHES
    }
    return result


def plan_quality_violations(result: PlanQualityResult) -> list[str]:
    """§1's loop, checked: multi-states models pick the cheaper plan more
    often than one-state models, with under half their regret and within
    10% of the per-round oracle, on rounds where the best site varies."""
    multi_regret = result.total_regret("multi-states")
    violations = []
    if not result.pct_optimal("multi-states") > result.pct_optimal("one-state"):
        violations.append("multi-states picks the optimal plan no more often")
    if not multi_regret < 0.5 * result.total_regret("one-state"):
        violations.append("multi-states regret is not under half of one-state's")
    if result.total_chosen_seconds("multi-states") > 1.10 * result.total_best_seconds:
        violations.append("multi-states plans cost over 110% of the oracle's")
    best_sites = {min(r.observed_by_site, key=r.observed_by_site.get) for r in result.rounds}
    if best_sites != {"left", "right"}:
        violations.append("the best join site never changes")
    return violations


def render_plan_quality(
    result: PlanQualityResult,
    approaches: tuple[str, ...] = APPROACHES,
    title: str | None = None,
) -> str:
    headers = [
        "approach",
        "optimal plans %",
        "total regret (s)",
        "chosen total (s)",
    ]
    with_probes = bool(result.probes_by_approach)
    if with_probes:
        headers.append("probes executed")
    rows = []
    for approach in approaches:
        row = [
            approach,
            result.pct_optimal(approach),
            result.total_regret(approach),
            result.total_chosen_seconds(approach),
        ]
        if with_probes:
            row.append(result.probes_by_approach.get(approach, 0))
        rows.append(tuple(row))
    oracle = ["(oracle: always best)", 100.0, 0.0, result.total_best_seconds]
    if with_probes:
        oracle.append("-")
    rows.append(tuple(oracle))
    return format_table(
        headers,
        rows,
        title=title
        or (
            f"Plan quality over {len(result.rounds)} global joins with "
            "independently loaded sites"
        ),
    )


def render_probe_cache_quality(result: PlanQualityResult) -> str:
    return render_plan_quality(
        result,
        approaches=PROBE_CACHE_APPROACHES,
        title=(
            f"Plan quality over {len(result.rounds)} global joins: "
            "per-optimization probes vs TTL-cached probe readings"
        ),
    )
