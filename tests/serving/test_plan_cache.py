"""Plan-cache semantics: keys, LRU, and *exact* invalidation.

The ISSUE acceptance criterion pinned here: registry publish / activate
/ rollback must evict exactly the entries whose dependency set contains
the touched (site, class) — and cached plans for untouched classes must
come back **byte-identical** (the same object, same description text).
"""

import pytest

from repro.engine.predicate import Comparison
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.optimizer import CostEstimate, GlobalPlan
from repro.mdbs.registry import CostModelRegistry, ModelProvenance
from repro.serving import PlanCache, query_key

from .conftest import query_mix


def make_query(left_table="R1", right_table="R2", predicate=None):
    return GlobalJoinQuery(
        "oracle_site", left_table, "db2_site", right_table, "a4", "a4",
        (f"{left_table}.a1", f"{right_table}.a2"),
        left_predicate=predicate if predicate is not None else Comparison("a3", "<", 500),
    )


def make_plan(query, deps):
    """A synthetic plan whose estimates depend on *deps*:
    {(site, class_label): state}."""
    estimates = [
        CostEstimate(f"{label} at {site}", 1.0, class_label=label, state=state, site=site)
        for (site, label), state in deps.items()
    ]
    estimates.append(CostEstimate("ship 10 tuples", 0.1))  # model-less component
    return GlobalPlan(query=query, components=None, join_site="right", estimates=estimates)


def resolver(states):
    """resolve_state callback serving from a {(site, label): state} dict."""
    return lambda site, label: states.get((site, label))


class TestKeys:
    def test_query_key_includes_predicates(self):
        a = make_query(predicate=Comparison("a3", "<", 500))
        b = make_query(predicate=Comparison("a3", "<", 501))
        assert query_key(a) != query_key(b)
        assert query_key(a) == query_key(make_query(predicate=Comparison("a3", "<", 500)))

    def test_state_change_misses_and_both_states_coexist(self):
        cache = PlanCache()
        query = make_query()
        low = make_plan(query, {("oracle_site", "G1"): 0})
        high = make_plan(query, {("oracle_site", "G1"): 2})
        cache.put(query, [low], low)
        cache.put(query, [high], high)
        assert cache.lookup(query, resolver({("oracle_site", "G1"): 0}))[0] is low
        assert cache.lookup(query, resolver({("oracle_site", "G1"): 2}))[0] is high
        assert cache.lookup(query, resolver({("oracle_site", "G1"): 1}))[0] is None
        assert cache.hits == 2 and cache.misses == 1

    def test_unresolvable_state_is_a_miss(self):
        cache = PlanCache()
        query = make_query()
        plan = make_plan(query, {("oracle_site", "G1"): 0})
        cache.put(query, [plan], plan)
        assert cache.lookup(query, resolver({}))[0] is None  # model gone -> None

    def test_model_less_plan_is_not_cached(self):
        cache = PlanCache()
        query = make_query()
        plan = GlobalPlan(
            query=query, components=None, join_site="left",
            estimates=[CostEstimate("ship", 0.1)],
        )
        cache.put(query, [plan], plan)
        assert len(cache) == 0

    def test_keys_are_site_class_state(self):
        cache = PlanCache()
        query = make_query()
        plan = make_plan(query, {("oracle_site", "G1"): 0})
        cache.put(query, [plan], plan)
        ((qkey, states),) = cache.entries()
        assert states == (("oracle_site", "G1", 0),)

    def test_dependencies_union_all_candidates(self):
        """The dep set covers both candidate plans, not just the winner."""
        cache = PlanCache()
        query = make_query()
        winner = make_plan(query, {("oracle_site", "G1"): 0})
        loser = make_plan(query, {("db2_site", "G3"): 1})
        cache.put(query, [winner, loser], winner)
        full = resolver({("oracle_site", "G1"): 0, ("db2_site", "G3"): 1})
        assert cache.lookup(query, full)[0] is winner
        # Missing either dependency's state -> miss, never a wrong hit.
        assert cache.lookup(query, resolver({("oracle_site", "G1"): 0}))[0] is None


class TestLRU:
    def test_capacity_evicts_oldest(self):
        cache = PlanCache(capacity=2)
        queries = [make_query(left_table=t) for t in ("R1", "R3", "R4")]
        plans = [make_plan(q, {("oracle_site", "G1"): 0}) for q in queries]
        for query, plan in zip(queries, plans):
            cache.put(query, [plan], plan)
        states = resolver({("oracle_site", "G1"): 0})
        assert cache.lookup(queries[0], states)[0] is None  # oldest evicted
        assert cache.lookup(queries[1], states)[0] is plans[1]
        assert cache.lookup(queries[2], states)[0] is plans[2]
        assert cache.evictions == 1

    def test_hits_refresh_recency(self):
        cache = PlanCache(capacity=2)
        queries = [make_query(left_table=t) for t in ("R1", "R3", "R4")]
        plans = [make_plan(q, {("oracle_site", "G1"): 0}) for q in queries]
        states = resolver({("oracle_site", "G1"): 0})
        cache.put(queries[0], [plans[0]], plans[0])
        cache.put(queries[1], [plans[1]], plans[1])
        cache.lookup(queries[0], states)[0]  # R1 is now the most recent
        cache.put(queries[2], [plans[2]], plans[2])  # evicts R3
        assert cache.lookup(queries[0], states)[0] is plans[0]
        assert cache.lookup(queries[1], states)[0] is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestExactInvalidation:
    def put_two(self, cache):
        q1, q2 = make_query(left_table="R1"), make_query(left_table="R3")
        p1 = make_plan(q1, {("oracle_site", "G1"): 0, ("db2_site", "G3"): 1})
        p2 = make_plan(q2, {("oracle_site", "G3"): 2})
        cache.put(q1, [p1], p1)
        cache.put(q2, [p2], p2)
        return (q1, p1), (q2, p2)

    def test_evicts_exactly_the_dependent_entries(self):
        cache = PlanCache()
        (q1, p1), (q2, p2) = self.put_two(cache)
        assert cache.invalidate_model("db2_site", "G3") == 1
        assert cache.invalidated == 1
        survivor = cache.lookup(q2, resolver({("oracle_site", "G3"): 2}))[0]
        assert survivor is p2  # byte-identical: the very same object
        assert survivor.describe() == p2.describe()
        gone = cache.lookup(
            q1, resolver({("oracle_site", "G1"): 0, ("db2_site", "G3"): 1})
        )[0]
        assert gone is None

    def test_untouched_pair_evicts_nothing(self):
        cache = PlanCache()
        self.put_two(cache)
        assert cache.invalidate_model("db2_site", "G9") == 0
        assert len(cache) == 2

    def test_reput_after_invalidation_works(self):
        cache = PlanCache()
        (q1, p1), _ = self.put_two(cache)
        cache.invalidate_model("oracle_site", "G1")
        fresh = make_plan(q1, {("oracle_site", "G1"): 1, ("db2_site", "G3"): 1})
        cache.put(q1, [fresh], fresh)
        states = resolver({("oracle_site", "G1"): 1, ("db2_site", "G3"): 1})
        assert cache.lookup(q1, states)[0] is fresh


class TestRegistryEvents:
    """End-to-end against the real registry and real optimizer plans."""

    def fill(self, server, cache, mix=None):
        """Optimize the whole mix once and cache every decision."""
        entries = {}
        for query in mix if mix is not None else query_mix():
            chosen, candidates = server.optimizer.choose(query)
            cache.put(query, candidates, chosen)
            entries[query] = chosen
        return entries

    def test_publish_activate_rollback_evict_dependents(self, serving_mdbs):
        server, _ = serving_mdbs
        cache = PlanCache(server.catalog.registry)
        try:
            # The cross-site mix plus a db2-only join: the latter cannot
            # depend on any oracle_site model, so it is a guaranteed
            # survivor of an oracle-side invalidation.
            mix = query_mix() + [
                GlobalJoinQuery(
                    "db2_site", "R1", "db2_site", "R2", "a4", "a4",
                    ("R1.a1", "R2.a2"),
                )
            ]
            entries = self.fill(server, cache, mix)
            resolve = server.optimizer.current_state
            # Partition the mix by dependence on some oracle-side model.
            target = next(
                (e.site, e.class_label)
                for plan in entries.values()
                for e in plan.estimates
                if e.site == "oracle_site" and e.class_label is not None
            )
            dependent = [
                q for q, plan in entries.items()
                if any((e.site, e.class_label) == target for e in plan.estimates)
            ]
            untouched = [q for q in entries if q not in dependent]
            assert dependent, "mix must exercise an oracle-side model"
            assert untouched, "the db2-only join must not depend on it"

            # Re-publishing the active model is a new version: an event.
            model = server.catalog.registry.active_model(*target)
            server.store_cost_model(target[0], model)
            for query in dependent:
                assert cache.lookup(query, resolve)[0] is None
            for query in untouched:
                assert cache.lookup(query, resolve)[0] is entries[query]

            # Roll back to the previous version: evicts dependents again.
            refreshed = self.fill(server, cache, mix)
            server.rollback_model(*target)
            for query in dependent:
                assert cache.lookup(query, resolve)[0] is None
            for query in untouched:
                assert cache.lookup(query, resolve)[0] is refreshed[query]
        finally:
            cache.close()

    def test_plan_without_active_model_is_not_cached(self):
        """A plan scored through a same-family stand-in depends on a
        (site, class) with no active model: no registry event would ever
        evict it, so it is never cached."""

        class Model:
            class_label = "G1"

        registry = CostModelRegistry()
        registry.publish("oracle_site", Model(), ModelProvenance())
        cache = PlanCache(registry)
        query = make_query()
        plan = make_plan(query, {("oracle_site", "G1"): 0, ("db2_site", "G3"): 1})
        cache.put(query, [plan], plan)
        assert len(cache) == 0
        states = resolver({("oracle_site", "G1"): 0, ("db2_site", "G3"): 1})
        assert cache.lookup(query, states) == (None, "cold")

    def test_close_detaches_from_registry(self, serving_mdbs):
        server, _ = serving_mdbs
        cache = PlanCache(server.catalog.registry)
        entries = self.fill(server, cache)
        cache.close()
        model = server.catalog.registry.active_model("db2_site", "G3")
        server.store_cost_model("db2_site", model)  # no longer observed
        assert len(cache) == len(entries)
