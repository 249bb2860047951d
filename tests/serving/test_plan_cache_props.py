"""Property tests: plan-cache invalidation tracks registry events exactly.

The cache's safety contract is *surgical* invalidation: whenever the
registry publishes, activates, or rolls back a version for one
``(site, class)``, the cache must evict every entry whose dependency set
contains that pair — and ONLY those.  Hypothesis drives randomized
interleavings of plan installs and registry lifecycle events against a
mirror model of the expected surviving entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.optimizer import CostEstimate, GlobalPlan
from repro.mdbs.registry import (
    CostModelRegistry,
    CostModelRegistryError,
    ModelProvenance,
)
from repro.serving.plan_cache import PlanCache, query_key

SITES = ("site_a", "site_b")
CLASSES = ("G1", "G3")
#: Every (site, class) a plan may depend on.
DEPS = tuple((site, label) for site in SITES for label in CLASSES)

QUERIES = tuple(
    GlobalJoinQuery(
        "site_a",
        f"R{i + 1}",
        "site_b",
        f"R{(i + 1) % 6 + 1}",
        "a4",
        "a4",
        (f"R{i + 1}.a1",),
    )
    for i in range(6)
)


class StubModel:
    """Just enough of a cost model for the registry to version it."""

    def __init__(self, class_label: str) -> None:
        self.class_label = class_label


def make_plan(query, deps, states):
    """A plan whose estimates read exactly *deps* in *states*."""
    return GlobalPlan(
        query=query,
        components=None,
        join_site="left",
        estimates=[
            CostEstimate(
                description=f"{site}/{label}",
                seconds=1.0,
                class_label=label,
                state=state,
                site=site,
            )
            for (site, label), state in zip(deps, states)
        ],
    )


#: One scripted step: install a plan, or fire a registry lifecycle event.
puts = st.tuples(
    st.just("put"),
    st.integers(0, len(QUERIES) - 1),
    st.sets(st.sampled_from(DEPS), min_size=1, max_size=len(DEPS)),
    st.integers(0, 2),
)
events = st.tuples(
    st.sampled_from(["publish", "activate", "rollback"]),
    st.sampled_from(DEPS),
)
scripts = st.lists(st.one_of(puts, events), max_size=60)


@settings(max_examples=100, deadline=None)
@given(script=scripts)
def test_registry_events_evict_exactly_dependent_entries(script):
    registry = CostModelRegistry()
    for site, label in DEPS:
        registry.publish(site, StubModel(label), provenance=ModelProvenance())
    cache = PlanCache(registry=registry, capacity=4096)
    #: Mirror of expected residency: full_key -> deps at install time.
    mirror = {}

    for step in script:
        if step[0] == "put":
            _, qidx, dep_set, state = step
            deps = tuple(sorted(dep_set))
            states = [state] * len(deps)
            query = QUERIES[qidx]
            cache.put(query, [make_plan(query, deps, states)], make_plan(query, deps, states))
            full_key = (
                query_key(query),
                tuple((s, c, state) for s, c in deps),
            )
            mirror[full_key] = deps
        else:
            action, (site, label) = step
            try:
                if action == "publish":
                    registry.publish(
                        site, StubModel(label), provenance=ModelProvenance()
                    )
                elif action == "activate":
                    current = registry.active_version(site, label).version
                    registry.activate(site, label, current)
                else:
                    registry.rollback(site, label)
            except CostModelRegistryError:
                # An impossible rollback fires no event: nothing evicted.
                assert set(cache.entries()) == set(mirror)
                continue
            mirror = {
                key: deps
                for key, deps in mirror.items()
                if (site, label) not in deps
            }
        assert set(cache.entries()) == set(mirror)


@settings(max_examples=60, deadline=None)
@given(
    dep_set=st.sets(st.sampled_from(DEPS), min_size=1, max_size=len(DEPS)),
    touched=st.sampled_from(DEPS),
    state=st.integers(0, 2),
)
def test_lookup_misses_only_after_dependent_event(dep_set, touched, state):
    """A publish hits exactly the plans that scored through that model."""
    registry = CostModelRegistry()
    for site, label in DEPS:
        registry.publish(site, StubModel(label), provenance=ModelProvenance())
    cache = PlanCache(registry=registry, capacity=64)
    deps = tuple(sorted(dep_set))
    query = QUERIES[0]
    plan = make_plan(query, deps, [state] * len(deps))
    cache.put(query, [plan], plan)

    def resolve(site, label):
        return state

    assert cache.lookup(query, resolve)[0] is plan

    site, label = touched
    registry.publish(site, StubModel(label), provenance=ModelProvenance())
    if touched in deps:
        assert cache.lookup(query, resolve)[0] is None
        assert cache.invalidated >= 1
    else:
        assert cache.lookup(query, resolve)[0] is plan
