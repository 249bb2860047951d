"""The model lifecycle, one step at a time.

One MDBS server with one site is driven through a scripted timeline in
which every step causes at most one kind of rebuild: the initial build,
nothing due, the rebuild period, a table added, a table dropped,
cardinality drift crossing 20%, an index added, a ``probe_escape``
event, a ``good_band`` event held back by the cooldown and then let
through, two classes flagged in one pass, and an event for a class the
lifecycle does not manage.

The server executes nothing: accuracy samples and probe readings are
written straight into its tracker, so every drift event is scripted.
After each ``maintain()`` the test checks the return value, the trigger
of every published version, the probe-cache invalidations, the tracker
resets, the event log (one rule per event) and the lifecycle counters.
A catalog or period rebuild is recorded like a drift rebuild: its event
is logged, counted under ``mdbs.drift.events`` and published as the
version's trigger; it resets no accuracy window.
"""

import re

import pytest

from repro import obs
from repro.core.builder import CostModelBuilder
from repro.core.classification import G1, G2, G3
from repro.engine.profiles import ORACLE_LIKE
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.lifecycle import DriftPolicy
from repro.mdbs.server import MDBSServer
from repro.obs.quality import AccuracyTracker
from repro.workload import make_site

TABLES = ["R1", "R2", "R3", "R4"]
SITE = "timeline_site"
#: Long enough that only the "period elapsed" step sees it elapse.
PERIOD = 1_000_000.0
#: Longer than one rebuild (about 850 s for G1, 1,300 s for G3 here).
COOLDOWN = 5_000.0
SAMPLE_COUNTS = {"G1": 40, "G3": 60}

_TRIGGER = re.compile(r"drift\[(\w+)\] (\S+)/(\S+) @t=")


def trigger_rule(trigger):
    """The rule named by a published version's trigger (None = none)."""
    if trigger is None:
        return None
    match = _TRIGGER.match(trigger)
    assert match, trigger
    return match.group(1)


@pytest.fixture
def metrics():
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    yield registry
    obs.set_registry(previous)


def test_lifecycle_timeline(metrics):
    site = make_site(
        SITE, profile=ORACLE_LIKE, environment_kind="uniform", scale=0.01, seed=77
    )
    tracker = AccuracyTracker(export=False)
    server = MDBSServer(accuracy=tracker)
    server.register_agent(MDBSAgent(site.database))
    registry = server.catalog.registry
    env = site.environment

    invalidated, resets = [], []
    invalidate, reset = server.probing.invalidate, tracker.reset

    def recording_invalidate(site_name=None):
        invalidated.append(site_name)
        invalidate(site_name)

    def recording_reset(site_name=None, class_label=None):
        resets.append((site_name, class_label))
        reset(site_name, class_label)

    server.probing.invalidate = recording_invalidate
    tracker.reset = recording_reset

    published = []  # (label, version, trigger rule), in publish order
    logged = []  # rules in the tracker's event log
    counters = {}

    def bump(name, amount=1):
        counters[name] = counters.get(name, 0) + amount

    def lifecycle_counters():
        return {
            name: value
            for name, value in metrics.counters().items()
            if name.startswith("mdbs.drift.")
            or name in ("maintenance.rebuilds", "mdbs.maintenance_runs")
        }

    def check(result, rebuilt, rule=None, logged_rules=(), reset_after=False):
        """One maintain() pass rebuilt *rebuilt*, each with trigger *rule*."""
        assert result == {SITE: {label: result[SITE][label] for label in rebuilt}}
        for label in rebuilt:
            entry = registry.active_version(SITE, label)
            assert entry.model is result[SITE][label].model
            assert trigger_rule(entry.provenance.trigger) == rule
            if rule is not None:
                assert f"{SITE}/{label} @t=" in entry.provenance.trigger
            published.append((label, entry.version, rule))
            bump("maintenance.rebuilds")
        assert invalidated == ([SITE] if rebuilt else [])
        assert resets == ([(SITE, label) for label in rebuilt] if reset_after else [])
        invalidated.clear()
        resets.clear()
        logged.extend(logged_rules)
        assert [event.rule for event in tracker.drift_events] == logged
        bump("mdbs.maintenance_runs")
        for _ in logged_rules:
            bump("mdbs.drift.events")
        assert lifecycle_counters() == counters
        assert [
            (entry.class_label, entry.version, trigger_rule(entry.provenance.trigger))
            for entry in registry
            if entry.class_label != G2.label
        ] == sorted(published)

    def bad_samples(label, n=8):
        for _ in range(n):
            tracker.record(SITE, label, 0, predicted=10.0, actual=1.0, at_time=env.now)

    # 1. Initial build: registering derives and publishes v1, no trigger.
    versions = server.register_model_classes(
        SITE,
        (G1, G3),
        lambda query_class, n: site.generator.queries_for(
            query_class, n, tables=TABLES
        ),
        sample_count=lambda query_class: SAMPLE_COUNTS[query_class.label],
        rebuild_period_seconds=PERIOD,
        drift=DriftPolicy(
            recent_window=8, min_samples=4, bias_limit=None,
            cooldown_seconds=COOLDOWN,
        ),
    )
    for label, version in versions.items():
        assert (version.version, version.provenance.trigger) == (1, None)
        published.append((label, 1, None))
        bump("maintenance.rebuilds")
    assert sorted(versions) == ["G1", "G3"]
    assert lifecycle_counters() == counters
    assert invalidated == [] and resets == []

    # 2. Nothing due.
    check(server.maintain(), [])

    # 3. The rebuild period elapses: every registered class is due.
    env.advance(PERIOD + 1.0)
    check(
        server.maintain(), ["G1", "G3"], rule="period",
        logged_rules=["period", "period"],
    )

    # 4. A table is added (a catalog change every class sees).
    site.database.create_table(
        "R13", site.database.catalog.table("R1").schema.columns, []
    )
    check(
        server.maintain(), ["G1", "G3"], rule="catalog",
        logged_rules=["catalog", "catalog"],
    )

    # 5. The table is dropped again.
    site.database.catalog.drop_table("R13")
    check(
        server.maintain(), ["G1", "G3"], rule="catalog",
        logged_rules=["catalog", "catalog"],
    )

    # 6. Cardinality drift: 10% growth is not significant; another 15%
    #    takes the accumulated drift past 20%.
    r1 = site.database.catalog.table("R1")
    row = r1.rows()[0]
    base = r1.cardinality
    for _ in range(base // 10):
        r1.insert(row)
    check(server.maintain(), [])
    for _ in range(base * 15 // 100):
        r1.insert(row)
    check(
        server.maintain(), ["G1", "G3"], rule="catalog",
        logged_rules=["catalog", "catalog"],
    )

    # 7. An index is added.
    site.database.create_index("extra", "R1", "a5")
    check(
        server.maintain(), ["G1", "G3"], rule="catalog",
        logged_rules=["catalog", "catalog"],
    )

    # 8. G3's recent estimates leave the good band: one drift rebuild,
    #    and G3's accuracy windows start afresh.
    bad_samples("G3")
    check(
        server.maintain(), ["G3"], rule="good_band",
        logged_rules=["good_band"], reset_after=True,
    )

    # 9. Probe readings escape every model's state range.  G3 is still
    #    cooling down, so only G1 gets a probe_escape event.
    states = [registry.active_model(SITE, label).states for label in ("G1", "G3")]
    escaped = 100.0 * max(s.cmax for s in states)
    for _ in range(4):
        tracker.record_probe(SITE, escaped, at_time=env.now)
    env.advance(10.0)
    check(
        server.maintain(), ["G1"], rule="probe_escape",
        logged_rules=["probe_escape"], reset_after=True,
    )

    # 10. G1 leaves the good band while cooling down: held back, then
    #     let through once the cooldown has passed.
    bad_samples("G1")
    env.advance(10.0)
    check(server.maintain(), [])
    env.advance(COOLDOWN)
    check(
        server.maintain(), ["G1"], rule="good_band",
        logged_rules=["good_band"], reset_after=True,
    )

    # 11. Both classes leave the good band: two rebuilds in one pass.
    env.advance(COOLDOWN)
    bad_samples("G1")
    bad_samples("G3")
    check(
        server.maintain(), ["G1", "G3"], rule="good_band",
        logged_rules=["good_band", "good_band"], reset_after=True,
    )

    # 12. A class with a model but no registration: its event is logged
    #     and nothing is rebuilt.
    outcome = CostModelBuilder(site.database).build(
        G2, site.generator.queries_for(G2, 40, tables=TABLES), "iupma"
    )
    server.store_cost_model(SITE, outcome.model)
    bad_samples("G2")
    check(server.maintain(), [], logged_rules=["good_band"])
    assert tracker.drift_events[-1].class_label == "G2"
    assert [e.version for e in registry.history(SITE, "G2")] == [1]
