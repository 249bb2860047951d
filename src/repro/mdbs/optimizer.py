"""The global query optimizer: cost-model-driven site selection.

"Based on the estimated local costs, the global query optimizer chooses
a good execution plan for a global query" (§1).  For a two-site join the
optimizer enumerates the *join site* (left or right), estimates each
candidate's total cost as

    local selection at A  +  local selection at B
    + shipping the remote intermediate to the join site
    + the join at the join site,

with every local cost estimated by the *active* derived multi-states
cost model of the query's class at that site, resolved to the current
contention state by a probing cost obtained through the
:class:`~repro.mdbs.probing_service.ProbingService` (one probe per site
per optimization; cached within the service's TTL).  Explanatory-variable
values come from global-catalog statistics only (cardinalities, tuple
lengths, selectivity estimates) — nothing that local autonomy would hide.

Both decisions on the request path live here once:
:func:`state_for_reading` is the (model, probing reading) → state rule,
and :meth:`GlobalQueryOptimizer.choose` the plan choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.classification import G3, QueryClass
from ..core.model import MultiStateCostModel
from ..engine.predicate import Comparison, extract_key_range
from ..engine.query import SelectQuery
from ..engine.schema import ColumnStatistics, TableStatistics
from .agent import MDBSAgent
from .catalog import GlobalCatalog, TableFacts
from .gquery import ComponentQueries, GlobalJoinQuery, decompose
from .network import NetworkModel
from .probing_service import ProbingService
from .registry import CostModelRegistryError


def facts_to_statistics(facts: TableFacts) -> TableStatistics:
    """Rebuild engine-style statistics from exported catalog facts."""
    stats = TableStatistics(cardinality=facts.cardinality)
    for name, (minimum, maximum, distinct) in facts.column_stats.items():
        stats.columns[name] = ColumnStatistics(minimum, maximum, distinct)
    return stats


def estimate_unary_variables(
    facts: TableFacts, query: SelectQuery, query_class: QueryClass
) -> dict[str, float]:
    """Estimate the Table-3 unary variables from catalog facts alone."""
    stats = facts_to_statistics(facts)
    no = float(facts.cardinality)
    selectivity = query.predicate.selectivity(stats)
    nr = no * selectivity

    ni = no
    if query_class.access_method in ("nonclustered_index_scan", "clustered_index_scan"):
        index_column = _index_column_for(facts, query_class)
        if index_column is not None:
            key_range, _ = extract_key_range(query.predicate, index_column)
            if key_range is not None and key_range.is_bounded:
                ni = no * _range_selectivity(stats, index_column, key_range)

    lo = float(facts.tuple_length)
    out_columns = query.columns or tuple(facts.column_widths)
    lr = float(sum(facts.column_widths[c] for c in out_columns))
    return {
        "no": no,
        "ni": ni,
        "nr": nr,
        "lo": lo,
        "lr": lr,
        "tlo": no * lo,
        "tlr": nr * lr,
    }


def _index_column_for(facts: TableFacts, query_class: QueryClass) -> str | None:
    wanted = (
        "clustered"
        if query_class.access_method == "clustered_index_scan"
        else "nonclustered"
    )
    for column, kind in sorted(facts.indexed_columns.items()):
        if kind == wanted:
            return column
    return None


def _range_selectivity(stats: TableStatistics, column: str, key_range) -> float:
    selectivity = 1.0
    if key_range.low is not None:
        op = ">=" if key_range.low_inclusive else ">"
        selectivity *= Comparison(column, op, key_range.low).selectivity(stats)
    if key_range.high is not None:
        op = "<=" if key_range.high_inclusive else "<"
        selectivity *= Comparison(column, op, key_range.high).selectivity(stats)
    if key_range.is_point:
        selectivity = Comparison(column, "=", key_range.low).selectivity(stats)
    return selectivity


def estimate_join_variables(
    n1: float,
    n2: float,
    l1: float,
    l2: float,
    ndv1: int,
    ndv2: int,
) -> dict[str, float]:
    """Join variables for an intermediate-by-intermediate equijoin.

    The shipped intermediates carry no predicates of their own, so
    ``ni = n``; the result estimate uses the standard
    |L|·|R| / max(ndv_L, ndv_R) equijoin formula.
    """
    ndv1_eff = max(1.0, min(float(ndv1), n1))
    ndv2_eff = max(1.0, min(float(ndv2), n2))
    nr = n1 * n2 / max(ndv1_eff, ndv2_eff)
    lr = l1 + l2
    return {
        "n1": n1,
        "n2": n2,
        "ni1": n1,
        "ni2": n2,
        "nr": nr,
        "nixni": n1 * n2,
        "l1": l1,
        "l2": l2,
        "lr": lr,
        "tl1": n1 * l1,
        "tl2": n2 * l2,
        "tlr": nr * lr,
    }


@dataclass(frozen=True)
class CostEstimate:
    """One component's estimated cost and the model that produced it."""

    description: str
    seconds: float
    class_label: str | None = None
    state: int | None = None
    #: Site whose cost model produced the estimate (None for estimates
    #: with no model behind them, e.g. network shipping).  Lets the
    #: accuracy tracker attribute each estimate-vs-actual pair to the
    #: (site, class, state) window that produced the prediction.
    site: str | None = None
    #: Explanatory-variable values behind the estimate.  Online model
    #: forms rebuild the design row from these to fold the served
    #: estimate-vs-actual sample back into the model.
    values: dict | None = field(default=None, compare=False, hash=False)


@dataclass
class GlobalPlan:
    """A candidate execution strategy for a global join."""

    query: GlobalJoinQuery
    components: ComponentQueries
    join_site: str  # "left" or "right"
    estimates: list[CostEstimate] = field(default_factory=list)

    @property
    def estimated_seconds(self) -> float:
        return sum(e.seconds for e in self.estimates)

    def describe(self) -> str:
        lines = [f"join at {self.join_site} site — est {self.estimated_seconds:.2f}s"]
        lines += [f"  {e.description}: {e.seconds:.3f}s" for e in self.estimates]
        return "\n".join(lines)


def state_for_reading(model: MultiStateCostModel, probing_cost: float | None) -> int:
    """The contention state a probing reading resolves *model* to (§3.3).

    The static middle state when no probing cost could be determined
    (the probing chain's last fallback).  The optimizer's estimates and
    the plan cache's lookups both resolve states here.
    """
    if probing_cost is None:
        return model.num_states // 2
    return model.state_for(probing_cost)


class GlobalQueryOptimizer:
    """Chooses where to execute the inter-site join."""

    def __init__(
        self,
        catalog: GlobalCatalog,
        agents: dict[str, MDBSAgent],
        network: NetworkModel | None = None,
        probing: ProbingService | None = None,
    ) -> None:
        self.catalog = catalog
        self.agents = agents
        self.network = network or NetworkModel()
        # A private ttl=0 service reproduces the pre-lifecycle behavior
        # exactly: every optimization probes each involved site afresh.
        self.probing = probing or ProbingService(agents)

    # -- probing + model resolution -----------------------------------------

    def probing_cost(self, site: str) -> float | None:
        """This optimization's probing cost for *site* (None = degraded)."""
        return self.probing.probing_cost(site)

    def current_state(self, site: str, class_label: str) -> int | None:
        """The state the active model of exactly this class resolves to now.

        None when (site, class) has no active model, decided before any
        probe runs.  The plan cache's state resolver.
        """
        registry = self.catalog.registry
        if not registry.has_model(site, class_label):
            return None
        model = registry.active_model(site, class_label)
        return state_for_reading(model, self.probing_cost(site))

    def _model_for(self, site: str, query_class: QueryClass) -> MultiStateCostModel:
        """The active model for the class — or a same-family stand-in.

        A site can transiently lack a model for a class (not yet derived,
        or dropped by maintenance).  Classes in the same family share the
        explanatory-variable set, so any same-family model at the site
        can still produce an order-of-magnitude estimate; that beats
        aborting the whole plan enumeration.
        """
        registry = self.catalog.registry
        if registry.has_model(site, query_class.label):
            return registry.active_model(site, query_class.label)
        for model in registry.active_models_at(site):
            if model.family == query_class.family:
                return model
        raise CostModelRegistryError(
            f"no cost model for class {query_class.label!r} at site {site!r}"
        )

    # -- local estimation ----------------------------------------------------

    def estimate_select(
        self, site: str, query: SelectQuery, probing_cost: float | None = None
    ) -> tuple[CostEstimate, dict[str, float]]:
        """Estimated cost + variables of a local selection at *site*."""
        agent = self.agents[site]
        query_class = agent.classify(query)
        facts = self.catalog.table(site, query.table)
        values = estimate_unary_variables(facts, query, query_class)
        model = self._model_for(site, query_class)
        if probing_cost is None:
            probing_cost = self.probing_cost(site)
        state = state_for_reading(model, probing_cost)
        return (
            CostEstimate(
                f"select {query.table} at {site} ({query_class.label}, s{state})",
                max(0.0, model.predict_in_state(values, state)),
                query_class.label,
                state,
                site,
                values=values,
            ),
            values,
        )

    def estimate_join(
        self, site: str, values: dict[str, float], probing_cost: float | None
    ) -> CostEstimate:
        """Estimated cost of an intermediate-by-intermediate (G3) join at *site*."""
        model = self._model_for(site, G3)
        state = state_for_reading(model, probing_cost)
        return CostEstimate(
            f"join at {site} ({G3.label}, s{state})",
            max(0.0, model.predict_in_state(values, state)),
            G3.label,
            state,
            site,
            values=values,
        )

    # -- plan enumeration --------------------------------------------------------

    def plans(self, query: GlobalJoinQuery) -> list[GlobalPlan]:
        """Both join-site candidates, with full cost breakdowns."""
        left_facts = self.catalog.table(query.left_site, query.left_table)
        right_facts = self.catalog.table(query.right_site, query.right_table)
        components = decompose(
            query, tuple(left_facts.column_widths), tuple(right_facts.column_widths)
        )

        # One probing cost per site per optimization, shared across the
        # candidate plans (the contention state is a property of the site,
        # not of the plan).  The service additionally caches readings
        # across optimizations when its TTL is non-zero.
        left_probe = self.probing_cost(query.left_site)
        right_probe = (
            left_probe
            if query.right_site == query.left_site
            else self.probing_cost(query.right_site)
        )

        left_est, left_vars = self.estimate_select(
            query.left_site, components.left, left_probe
        )
        right_est, right_vars = self.estimate_select(
            query.right_site, components.right, right_probe
        )

        l1 = float(
            sum(left_facts.column_widths[c] for c in components.left.columns)
        )
        l2 = float(
            sum(right_facts.column_widths[c] for c in components.right.columns)
        )
        ndv1 = left_facts.column_stats.get(query.left_join_column, (None, None, 1))[2]
        ndv2 = right_facts.column_stats.get(query.right_join_column, (None, None, 1))[2]
        join_values = estimate_join_variables(
            left_vars["nr"], right_vars["nr"], l1, l2, ndv1, ndv2
        )

        plans = []
        for join_site_key, shipped_rows, shipped_width, probe in (
            ("right", left_vars["nr"], l1, right_probe),
            ("left", right_vars["nr"], l2, left_probe),
        ):
            site = query.right_site if join_site_key == "right" else query.left_site
            ship = CostEstimate(
                f"ship {int(shipped_rows)} tuples to {site}",
                self.network.transfer_seconds(shipped_rows * shipped_width),
            )
            join_est = self.estimate_join(site, join_values, probe)
            plans.append(
                GlobalPlan(
                    query=query,
                    components=components,
                    join_site=join_site_key,
                    estimates=[left_est, right_est, ship, join_est],
                )
            )
        return plans

    def choose(self, query: GlobalJoinQuery) -> tuple[GlobalPlan, list[GlobalPlan]]:
        """The minimum-estimated-cost plan, and every candidate it was
        chosen from (a plan cache keys the decision on all of them)."""
        candidates = self.plans(query)
        return min(candidates, key=lambda p: p.estimated_seconds), candidates
