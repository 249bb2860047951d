"""Property tests: plan-cache invalidation tracks registry events exactly.

The cache's safety contract is *surgical* invalidation: whenever the
registry publishes, activates, or rolls back a version for one
``(site, class)``, the cache must evict every entry whose dependency set
contains that pair — and ONLY those.  Hypothesis drives randomized
interleavings of plan installs and registry lifecycle events against a
mirror model of the expected surviving entries.

The cache keys carry no model version or form: the registry writes
(publish, activate, rollback, import) are the only ways the active
(version, form) of a ``(site, class)`` changes, and each one evicts the
dependent plans.  ``test_every_hit_was_put_under_the_active_models``
checks exactly that over scripts mixing all four writes with puts and
lookups.  An online model form's in-place coefficient update changes
neither the version nor the form, and fires no event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.core.strategy import model_form, resolve_strategy
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.optimizer import CostEstimate, GlobalPlan
from repro.mdbs.registry import (
    CostModelRegistry,
    CostModelRegistryError,
    ModelProvenance,
)
from repro.serving.plan_cache import PlanCache, query_key

from ..core.synthetic import stepped_sample

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


FORMS = ("mlr.ols", "mlr.rls")


def _derived_models():
    """One real model per (class, form): the import path needs payloads."""
    X, y, probing = stepped_sample(true_states=2, n=60, seed=11)
    fit = fit_qualitative(X, y, probing, uniform_partition(0.0, 1.0, 2), ("x",))
    return {
        (label, form): resolve_strategy(form).finalize(
            MultiStateCostModel.from_fit(fit, label, "unary", "iupma"), fit
        )
        for label in CLASSES
        for form in FORMS
    }


MODELS = _derived_models()

#: Steps of the tag-free cache against a real registry.  Two queries and
#: two states keep hits frequent enough to catch a stale one.
query_index = st.integers(0, 1)
plan_puts = st.tuples(
    st.just("put"), query_index, st.sets(st.sampled_from(DEPS), min_size=1, max_size=2)
)
lookups = st.tuples(st.just("lookup"), query_index)
shifts = st.tuples(st.just("shift"), st.sampled_from(DEPS), st.integers(0, 1))
publishes = st.tuples(st.just("publish"), st.sampled_from(DEPS), st.sampled_from(FORMS))
activates = st.tuples(st.just("activate"), st.sampled_from(DEPS), st.integers(0, 5))
rollbacks = st.tuples(st.just("rollback"), st.sampled_from(DEPS))
#: Replace a (site, class)'s history with 1-3 versions of chosen forms.
imports = st.tuples(
    st.just("import"),
    st.sampled_from(DEPS),
    st.lists(st.sampled_from(FORMS), min_size=1, max_size=3),
    st.integers(0, 2),
)
full_scripts = st.lists(
    st.one_of(
        plan_puts, lookups, lookups, shifts, publishes, activates, rollbacks, imports
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(script=full_scripts)
def test_every_hit_was_put_under_the_active_models(script):
    registry = CostModelRegistry()
    for site, label in DEPS:
        registry.publish(site, MODELS[label, "mlr.ols"])
    cache = PlanCache(registry=registry)
    states = {dep: 0 for dep in DEPS}
    #: id(plan) -> the (version, form) of each dependency when it was put.
    put_under = {}

    def active(dep):
        entry = registry.active_version(*dep)
        return entry.version, model_form(entry.model)

    for step in script:
        kind = step[0]
        if kind == "put":
            _, qidx, dep_set = step
            deps = tuple(sorted(dep_set))
            query = QUERIES[qidx]
            plan = make_plan(query, deps, [states[dep] for dep in deps])
            cache.put(query, [plan], plan)
            put_under[id(plan)] = (plan, {dep: active(dep) for dep in deps})
        elif kind == "lookup":
            query = QUERIES[step[1]]
            plan, reason = cache.lookup(query, lambda site, label: states[site, label])
            if plan is not None:
                assert reason == "hit"
                stored, tags = put_under[id(plan)]
                assert stored is plan
                assert tags == {dep: active(dep) for dep in tags}
                assert all(e.state == states[e.site, e.class_label] for e in plan.estimates)
        elif kind == "shift":
            states[step[1]] = step[2]
        elif kind == "publish":
            (site, label), form = step[1], step[2]
            registry.publish(site, MODELS[label, form])
        elif kind == "activate":
            (site, label), pick = step[1], step[2]
            history = registry.history(site, label)
            registry.activate(site, label, history[pick % len(history)].version)
        elif kind == "rollback":
            try:
                registry.rollback(*step[1])
            except CostModelRegistryError:
                pass  # nothing older to serve; no event fired
        else:
            (site, label), forms, pick = step[1], step[2], step[3]
            source = CostModelRegistry()
            for form in forms:
                source.publish(site, MODELS[label, form])
            record = source.export()[f"{site}/{label}"]
            record["active"] = record["versions"][pick % len(forms)]["version"]
            registry.import_payload({f"{site}/{label}": record})
