"""The plan cache: repeated optimizations served without the optimizer.

A global plan is a pure function of (a) the query, (b) the contention
state each involved cost model resolves to, and (c) the active model
versions behind those estimates.  The cache keys on exactly that:

* the **query key** — every structural field of the
  :class:`~repro.mdbs.gquery.GlobalJoinQuery` including both local
  predicates, so only genuinely identical requests share a plan;
* the **state key** — the resolved contention state of every
  ``(site, query class)`` the plan's estimates depend on, learned from
  the first optimization of that query.  A site moving to a different
  contention state therefore misses and re-optimizes (the multi-states
  method's whole point), while repeats within a state hit;
* the **active model version**, enforced not by embedding version
  numbers in the key but by *invalidation*: the cache subscribes to its
  :class:`~repro.mdbs.registry.CostModelRegistry` and evicts exactly the
  entries depending on a ``(site, class)`` whenever a version is
  published, activated, rolled back or imported — the model-staleness
  discipline of the adaptive-cost-model literature (a cached plan must
  never outlive the model that scored it).  Those four writes are the
  only ways the active (version, model form) changes, so the key needs
  neither.  An online model form (``mlr.rls``) updates the active
  model's coefficients in place and fires no event: its cached plans
  stay until the next registry write.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Sequence

from .. import obs
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.optimizer import GlobalPlan

#: The resolved dependencies: (site, class_label, contention state) each.
StateKey = tuple[tuple, ...]
#: The (site, class_label) pairs a cached plan's estimates read.
DepKey = tuple[tuple[str, str], ...]


def query_key(query: GlobalJoinQuery) -> tuple:
    """A hashable identity for one global query, predicates included."""
    return (
        query.left_site,
        query.left_table,
        query.right_site,
        query.right_table,
        query.left_join_column,
        query.right_join_column,
        query.columns,
        repr(query.left_predicate),
        repr(query.right_predicate),
    )


class PlanCache:
    """LRU plan cache keyed (query, contention states), model-aware.

    ``registry`` (a :class:`~repro.mdbs.registry.CostModelRegistry`) is
    optional but is what makes the cache safe to serve from: every
    publish/activate/rollback event evicts the entries whose
    dependency set contains the touched ``(site, class)`` — and *only*
    those, so plans for untouched classes survive byte-identical.  With
    a registry, a plan is cached only while every dependency has an
    active model there.
    """

    def __init__(self, registry=None, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: (query_key, state_key) -> plan, in LRU order (oldest first).
        self._plans: "OrderedDict[tuple, GlobalPlan]" = OrderedDict()
        #: query_key -> the (site, class) pairs its plans depend on.
        self._deps: dict[tuple, DepKey] = {}
        #: (site, class) -> full keys of the plans depending on it.
        self._by_model: dict[tuple[str, str], set[tuple]] = {}
        #: query_key -> why its plans last left the cache ("capacity" or
        #: "invalidated:<site>/<class>"), for miss provenance in traces.
        #: Bounded LRU; cleared again the next time the query is cached.
        self._evicted: "OrderedDict[tuple, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self._registry = registry
        if registry is not None:
            registry.subscribe(self._on_registry_event)

    def __len__(self) -> int:
        return len(self._plans)

    # -- the serving API --------------------------------------------------

    def lookup(
        self,
        query: GlobalJoinQuery,
        resolve_state: Callable[[str, str], int | None],
    ) -> tuple[GlobalPlan | None, str]:
        """The cached plan for *query* under the current states, and why:
        ``(plan, reason)``, *plan* None on a miss.

        *resolve_state* maps ``(site, class_label)`` to the contention
        state the active model currently resolves to (None when the
        model is missing — always a miss); the front end passes
        :meth:`~repro.mdbs.optimizer.GlobalQueryOptimizer.current_state`,
        which may execute a probing query through the probing service.

        Reasons: ``"hit"``; ``"cold"`` (query never planned here);
        ``"unresolved"`` (a dependency's contention state would not
        resolve); ``"capacity"`` / ``"invalidated:<site>/<class>"`` (the
        entry was evicted and why); ``"state_changed"`` (cached, but
        under other contention states).  Trace spans record the reason
        as plan provenance.
        """
        qkey = query_key(query)
        deps = self._deps.get(qkey)
        if deps is None:
            return self._miss(), "cold"
        states: list[tuple] = []
        for site, label in deps:
            state = resolve_state(site, label)
            if state is None:
                return self._miss(), "unresolved"
            states.append((site, label, state))
        full_key = (qkey, tuple(states))
        cause = None
        plan = self._plans.get(full_key)
        if plan is not None:
            self._plans.move_to_end(full_key)
            self.hits += 1
        else:
            cause = self._evicted.get(qkey)
        if plan is None:
            return self._miss(), (cause or "state_changed")
        obs.inc("serving.plan_cache.hits")
        return plan, "hit"

    def put(
        self,
        query: GlobalJoinQuery,
        candidates: Sequence[GlobalPlan],
        chosen: GlobalPlan,
    ) -> None:
        """Remember *chosen* for *query* under the states it was scored in.

        *candidates* should be every plan the optimizer enumerated (not
        just the winner): the dependency set is the union over all
        candidates, so a later lookup resolves the same states no matter
        which join site the cached decision happened to pick.
        """
        state_by_dep: dict[tuple[str, str], int] = {}
        for plan in candidates:
            for estimate in plan.estimates:
                if (
                    estimate.site is not None
                    and estimate.class_label is not None
                    and estimate.state is not None
                ):
                    state_by_dep[(estimate.site, estimate.class_label)] = estimate.state
        if not state_by_dep:
            return  # nothing model-backed to key on; not cacheable
        deps: DepKey = tuple(sorted(state_by_dep))
        registry = self._registry
        if registry is not None and not all(registry.has_model(*dep) for dep in deps):
            # A same-family stand-in scored it; not cacheable.
            return
        states: StateKey = tuple((s, c, state_by_dep[(s, c)]) for s, c in deps)
        qkey = query_key(query)
        full_key = (qkey, states)
        self._deps[qkey] = deps
        self._evicted.pop(qkey, None)
        if full_key not in self._plans:
            while len(self._plans) >= self.capacity:
                self._evict_oldest()
        self._plans[full_key] = chosen
        self._plans.move_to_end(full_key)
        for dep in deps:
            self._by_model.setdefault(dep, set()).add(full_key)

    # -- invalidation -----------------------------------------------------

    def invalidate_model(self, site: str, class_label: str) -> int:
        """Evict exactly the entries depending on ``(site, class_label)``.

        Returns the number of plans evicted.  The query→dependency map is
        kept: which classes a query touches does not change with model
        versions, only the plans scored by them do.
        """
        keys = self._by_model.pop((site, class_label), set())
        cause = f"invalidated:{site}/{class_label}"
        for full_key in keys:
            self._remove(full_key)
            self._record_eviction(full_key[0], cause)
        count = len(keys)
        self.invalidated += count
        return count

    def clear(self) -> None:
        self._plans.clear()
        self._deps.clear()
        self._by_model.clear()
        self._evicted.clear()

    def close(self) -> None:
        """Detach from the registry's event stream."""
        if self._registry is not None:
            self._registry.unsubscribe(self._on_registry_event)
            self._registry = None

    # -- internals --------------------------------------------------------

    def _miss(self) -> None:
        self.misses += 1
        return None

    #: Eviction causes remembered for miss provenance (bounded LRU).
    EVICTION_CAUSES_KEPT = 512

    def _evict_oldest(self) -> None:
        full_key, _ = self._plans.popitem(last=False)
        for dep in self._deps.get(full_key[0], ()):
            holders = self._by_model.get(dep)
            if holders is not None:
                holders.discard(full_key)
        self._record_eviction(full_key[0], "capacity")
        self.evictions += 1

    def _record_eviction(self, qkey: tuple, cause: str) -> None:
        self._evicted[qkey] = cause
        self._evicted.move_to_end(qkey)
        while len(self._evicted) > self.EVICTION_CAUSES_KEPT:
            self._evicted.popitem(last=False)

    def _remove(self, full_key: tuple) -> None:
        self._plans.pop(full_key, None)
        for dep in self._deps.get(full_key[0], ()):
            holders = self._by_model.get(dep)
            if holders is not None:
                holders.discard(full_key)

    def _on_registry_event(
        self, action: str, site: str, class_label: str, version: int
    ) -> None:
        self.invalidate_model(site, class_label)

    # -- inspection -------------------------------------------------------

    def entries(self) -> Iterable[tuple]:
        """Current full keys, LRU-oldest first (testing/inspection)."""
        return list(self._plans)
