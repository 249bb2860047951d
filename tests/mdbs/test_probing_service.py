"""Unit tests for the probing service: cache, sharing, degradation.

Includes the two lifecycle acceptance properties:

* one ``optimizer.choose()`` on a two-site join executes at most one
  probing query per site (proved by the service's ``probes_executed``
  and by counting the agents' observed probes);
* with the cache disabled (``ttl=0``) plan choices are byte-identical
  to the pre-lifecycle behavior (probe each site once through the
  agents, in left-then-right order, and share the readings across the
  candidate plans).
"""

import pytest

from repro.engine.predicate import Comparison
from repro.mdbs.gquery import GlobalJoinQuery, decompose
from repro.mdbs.optimizer import (
    CostEstimate,
    GlobalPlan,
    GlobalQueryOptimizer,
    estimate_join_variables,
)
from repro.mdbs.probing_service import ProbeReading, ProbingService

from .conftest import calibrate


@pytest.fixture
def globalq():
    return GlobalJoinQuery(
        "oracle_site",
        "R2",
        "db2_site",
        "R3",
        "a4",
        "a4",
        ("R2.a1", "R3.a2"),
        left_predicate=Comparison("a3", "<", 500),
        right_predicate=Comparison("a7", ">", 25000),
    )


def snapshot_sites(sites):
    return {name: site.database.save_state() for name, site in sites.items()}


def restore_sites(sites, snapshot):
    for name, site in sites.items():
        site.database.restore_state(snapshot[name])


@pytest.fixture(autouse=True)
def _hermetic_mdbs(mini_mdbs):
    """mini_mdbs is session-scoped; these tests advance clocks and
    calibrate estimators, so rewind everything after each test."""
    server, sites = mini_mdbs
    snapshot = snapshot_sites(sites)
    estimators = {name: server.agents[name].estimator for name in sites}
    yield
    restore_sites(sites, snapshot)
    for name, estimator in estimators.items():
        server.agents[name].estimator = estimator
    server.probing.invalidate()


def count_observed_probes(server, monkeypatch):
    """Wrap every agent's observed probe; returns the live per-site counts."""
    counts = {}
    for site, agent in server.agents.items():

        def counted(original=agent.observed_probing_cost, site=site):
            counts[site] = counts.get(site, 0) + 1
            return original()

        monkeypatch.setattr(agent, "observed_probing_cost", counted)
    return counts


def executed_since(service, before):
    """Per-site probes *service* executed since the *before* copy."""
    return {
        site: count - before.get(site, 0)
        for site, count in service.probes_executed.items()
        if count != before.get(site, 0)
    }


def seed_reference_choose(server, query):
    """The pre-lifecycle optimizer, re-implemented independently.

    Probes each site once *directly through the agents* (left then
    right), shares the readings across both candidate plans, and picks
    the cheaper one — exactly what the seed ``plans()``/``choose()``
    did before the probing service existed.
    """
    optimizer = GlobalQueryOptimizer(server.catalog, server.agents, server.network)
    left_facts = server.catalog.table(query.left_site, query.left_table)
    right_facts = server.catalog.table(query.right_site, query.right_table)
    components = decompose(
        query, tuple(left_facts.column_widths), tuple(right_facts.column_widths)
    )
    left_probe = server.agents[query.left_site].observed_probing_cost()
    right_probe = server.agents[query.right_site].observed_probing_cost()
    left_est, left_vars = optimizer.estimate_select(
        query.left_site, components.left, left_probe
    )
    right_est, right_vars = optimizer.estimate_select(
        query.right_site, components.right, right_probe
    )
    l1 = float(sum(left_facts.column_widths[c] for c in components.left.columns))
    l2 = float(sum(right_facts.column_widths[c] for c in components.right.columns))
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
            server.network.transfer_seconds(shipped_rows * shipped_width),
        )
        join_est = optimizer.estimate_join(site, join_values, probe)
        plans.append(
            GlobalPlan(
                query=query,
                components=components,
                join_site=join_site_key,
                estimates=[left_est, right_est, ship, join_est],
            )
        )
    return min(plans, key=lambda p: p.estimated_seconds)


class TestCoalescing:
    def test_choose_probes_each_site_at_most_once(
        self, mini_mdbs, globalq, monkeypatch
    ):
        """Acceptance: ≤1 probing query per site per choose(), counted by
        the server's shared service and by the agents themselves."""
        server, _ = mini_mdbs
        observed = count_observed_probes(server, monkeypatch)
        before = dict(server.probing.probes_executed)
        server.optimizer.choose(globalq)
        executed = executed_since(server.probing, before)
        for site in ("oracle_site", "db2_site"):
            assert executed.get(site, 0) <= 1
        # Exactly one observed probe per involved site, none anywhere else.
        assert observed == {"oracle_site": 1, "db2_site": 1}
        assert executed == observed

    def test_same_site_join_probes_once(self, mini_mdbs):
        server, _ = mini_mdbs
        query = GlobalJoinQuery(
            "oracle_site",
            "R1",
            "oracle_site",
            "R2",
            "a4",
            "a4",
            ("R1.a1", "R2.a2"),
            left_predicate=Comparison("a3", "<", 500),
        )
        before = dict(server.probing.probes_executed)
        server.optimizer.choose(query)
        assert executed_since(server.probing, before) == {"oracle_site": 1}


class TestTTLZeroMatchesSeed:
    def test_plan_choice_byte_identical_to_seed(self, mini_mdbs, globalq):
        """Acceptance: with ttl=0 the lifecycle path reproduces the seed
        optimizer's choice — and its full estimate breakdown — byte for
        byte from an identical site state."""
        server, sites = mini_mdbs
        snapshot = snapshot_sites(sites)

        optimizer = GlobalQueryOptimizer(
            server.catalog,
            server.agents,
            server.network,
            probing=ProbingService(server.agents, ttl=0.0),
        )
        lifecycle_plan, _ = optimizer.choose(globalq)

        restore_sites(sites, snapshot)
        reference_plan = seed_reference_choose(server, globalq)

        assert lifecycle_plan.describe() == reference_plan.describe()
        assert lifecycle_plan.join_site == reference_plan.join_site
        assert [
            (e.description, e.seconds, e.class_label, e.state)
            for e in lifecycle_plan.estimates
        ] == [
            (e.description, e.seconds, e.class_label, e.state)
            for e in reference_plan.estimates
        ]

    def test_ttl_zero_never_serves_from_cache(self, mini_mdbs):
        server, _ = mini_mdbs
        service = ProbingService(server.agents, ttl=0.0)
        service.probing_cost("oracle_site")
        service.probing_cost("oracle_site")
        assert service.cache_hits == 0
        assert service.probes_executed["oracle_site"] == 2


class TestTTLCache:
    def test_second_read_within_ttl_is_cached(self, mini_mdbs):
        server, sites = mini_mdbs
        service = ProbingService(server.agents, ttl=600.0)
        first = service.probe("oracle_site")
        again = service.probe("oracle_site")
        assert again == first
        assert service.cache_hits == 1
        assert service.probes_executed["oracle_site"] == 1

    def test_expired_entry_probes_again(self, mini_mdbs):
        server, sites = mini_mdbs
        service = ProbingService(server.agents, ttl=60.0)
        service.probe("oracle_site")
        sites["oracle_site"].environment.advance(120.0)
        service.probe("oracle_site")
        assert service.probes_executed["oracle_site"] == 2

    def test_rewound_clock_invalidates_entry(self, mini_mdbs):
        # Fork-and-rewind experiments move the clock backwards; a cache
        # entry stamped in the "future" must not be served.
        server, sites = mini_mdbs
        database = sites["oracle_site"].database
        service = ProbingService(server.agents, ttl=600.0)
        state = database.save_state()
        database.environment.advance(50.0)
        service.probe("oracle_site")
        database.restore_state(state)
        service.probe("oracle_site")
        assert service.probes_executed["oracle_site"] == 2

    def test_invalidate_forces_fresh_probe(self, mini_mdbs):
        server, _ = mini_mdbs
        service = ProbingService(server.agents, ttl=600.0)
        service.probe("oracle_site")
        service.invalidate("oracle_site")
        service.probe("oracle_site")
        assert service.probes_executed["oracle_site"] == 2

    def test_negative_ttl_rejected(self, mini_mdbs):
        server, _ = mini_mdbs
        with pytest.raises(ValueError):
            ProbingService(server.agents, ttl=-1.0)

    def test_unknown_site_rejected(self, mini_mdbs):
        server, _ = mini_mdbs
        service = ProbingService(server.agents)
        with pytest.raises(KeyError):
            service.probe("nowhere")


class TestSourceCounterInvariant:
    """Every acquisition names exactly one fallback level in its
    reading's ``source``; only the observed and estimated levels execute
    a probe, and a cache hit serves the cached reading without one —
    through invalidation, degradation, and clock expiry alike."""

    def test_one_level_counter_per_acquisition(self, mini_mdbs, monkeypatch):
        server, sites = mini_mdbs
        oracle = server.agents["oracle_site"]
        db2 = server.agents["db2_site"]
        calibrate(oracle)
        service = ProbingService(server.agents, ttl=600.0)

        first = service.probe("oracle_site")  # miss -> observed
        assert first.source == "observed"
        assert service.probes_executed == {"oracle_site": 1}

        assert service.probe("oracle_site") is first  # hit -> no probe
        assert service.cache_hits == 1
        assert service.probes_executed == {"oracle_site": 1}

        service.invalidate("oracle_site")
        assert service.probe("oracle_site").source == "observed"  # miss again
        assert service.probes_executed == {"oracle_site": 2}

        def boom():
            raise RuntimeError("probe table is gone")

        monkeypatch.setattr(oracle, "observed_probing_cost", boom)
        service.invalidate("oracle_site")
        assert service.probe("oracle_site").source == "estimated"  # degrade
        assert service.probes_executed == {"oracle_site": 3}

        assert service.probe("db2_site").source == "observed"  # healthy
        assert service.probes_executed == {"oracle_site": 3, "db2_site": 1}

        monkeypatch.setattr(db2, "observed_probing_cost", boom)
        monkeypatch.setattr(db2, "estimator", None)
        # Expire (not invalidate) the entry: the stale reading stays
        # available as the last_known fallback.
        sites["db2_site"].environment.advance(1200.0)
        assert service.probe("db2_site").source == "last_known"  # degrade
        assert service.probes_executed == {"oracle_site": 3, "db2_site": 1}

        service.invalidate("db2_site")
        assert service.probe("db2_site").source == "static"  # nothing left
        assert service.probes_executed == {"oracle_site": 3, "db2_site": 1}
        assert service.cache_hits == 1


class TestFallbackChain:
    def _broken(self, agent, monkeypatch):
        def boom():
            raise RuntimeError("probe table is gone")

        monkeypatch.setattr(agent, "observed_probing_cost", boom)

    def test_estimated_when_observed_fails(self, mini_mdbs, monkeypatch):
        server, _ = mini_mdbs
        agent = server.agents["oracle_site"]
        calibrate(agent)
        self._broken(agent, monkeypatch)
        service = ProbingService(server.agents)
        reading = service.probe("oracle_site")
        assert reading.source == "estimated"
        assert reading.cost is not None
        assert service.probes_executed == {"oracle_site": 1}

    def test_last_known_when_no_estimator(self, mini_mdbs, monkeypatch):
        server, _ = mini_mdbs
        agent = server.agents["db2_site"]
        service = ProbingService(server.agents, ttl=0.0)
        healthy = service.probe("db2_site")
        self._broken(agent, monkeypatch)
        monkeypatch.setattr(agent, "estimator", None)
        reading = service.probe("db2_site")
        assert reading.source == "last_known"
        assert reading.cost == healthy.cost
        # Only the healthy reading executed a probe.
        assert service.probes_executed == {"db2_site": 1}

    def test_static_when_nothing_available(self, mini_mdbs, monkeypatch):
        server, _ = mini_mdbs
        agent = server.agents["db2_site"]
        self._broken(agent, monkeypatch)
        monkeypatch.setattr(agent, "estimator", None)
        service = ProbingService(server.agents)
        reading = service.probe("db2_site")
        assert reading == ProbeReading(None, "static", reading.at_time)
        assert service.probes_executed == {}

    def test_optimizer_degrades_to_static_prediction(
        self, mini_mdbs, globalq, monkeypatch
    ):
        """Even with both probes dead the optimizer still returns a plan."""
        server, _ = mini_mdbs
        for site in ("oracle_site", "db2_site"):
            self._broken(server.agents[site], monkeypatch)
            monkeypatch.setattr(server.agents[site], "estimator", None)
        probing = ProbingService(server.agents)
        optimizer = GlobalQueryOptimizer(
            server.catalog, server.agents, server.network, probing=probing
        )
        plan, _ = optimizer.choose(globalq)
        assert plan.join_site in ("left", "right")
        assert plan.estimated_seconds >= 0.0
        # Every model-backed estimate sits in its model's static middle state.
        registry = server.catalog.registry
        model_backed = [e for e in plan.estimates if e.class_label is not None]
        assert len(model_backed) == 3
        for estimate in model_backed:
            model = registry.active_model(estimate.site, estimate.class_label)
            assert estimate.state == model.num_states // 2
        # No probe executed anywhere, so every reading was static.
        assert probing.probes_executed == {}
        assert probing.probe("oracle_site").source == "static"


class TestTTLBoundary:
    """The TTL interval is closed: ``age == ttl`` is still a hit.

    Pinned explicitly because "within the TTL" is ambiguous at the
    boundary and the plan cache's hit-rate accounting (and the serving
    bench) depend on the exact semantics staying put.
    """

    def test_age_exactly_ttl_is_a_hit(self, mini_mdbs):
        server, sites = mini_mdbs
        service = ProbingService(server.agents, ttl=60.0)
        first = service.probe("oracle_site")
        sites["oracle_site"].environment.advance(
            60.0 - (sites["oracle_site"].environment.now - first.at_time)
        )
        again = service.probe("oracle_site")
        assert again is first
        assert service.cache_hits == 1
        assert service.probes_executed["oracle_site"] == 1

    def test_age_just_past_ttl_is_a_miss(self, mini_mdbs):
        server, sites = mini_mdbs
        service = ProbingService(server.agents, ttl=60.0)
        first = service.probe("oracle_site")
        sites["oracle_site"].environment.advance(
            60.0 - (sites["oracle_site"].environment.now - first.at_time) + 1e-6
        )
        service.probe("oracle_site")
        assert service.probes_executed["oracle_site"] == 2


class _RecordingTracker:
    """An AccuracyTracker stand-in counting record_probe calls."""

    def __init__(self):
        self.fed = []

    def record_probe(self, site, cost, at_time=None):
        self.fed.append((site, cost, at_time))


class TestTrackerFeedIdempotency:
    """One executed probe = exactly one tracker sample, however many
    requests the reading serves (cache hits must not re-feed the
    accuracy tracker)."""

    def test_cache_hits_do_not_refeed_the_tracker(self, mini_mdbs):
        server, _ = mini_mdbs
        tracker = _RecordingTracker()
        service = ProbingService(server.agents, ttl=600.0, tracker=tracker)
        for _ in range(5):
            service.probe("oracle_site")
        assert service.probes_executed["oracle_site"] == 1
        assert len(tracker.fed) == 1
        assert tracker.fed[0][0] == "oracle_site"

    def test_every_execution_feeds_exactly_once(self, mini_mdbs):
        server, _ = mini_mdbs
        tracker = _RecordingTracker()
        service = ProbingService(server.agents, ttl=0.0, tracker=tracker)
        for _ in range(3):
            service.probe("db2_site")
        assert len(tracker.fed) == 3
