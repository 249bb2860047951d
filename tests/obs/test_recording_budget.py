"""Guard: the per-execution path records only what the dashboard reads.

Counts metrics-registry calls — recordings and handle requests alike —
on the paths that run once per execution: charging a query, observing a
probe, collecting a sample, and serving a cached request.  The first
three record nothing; a served request records only totals that
:func:`repro.obs.expose.render_dashboard` prints.  Every other fact of
an execution is kept by the object that owns it (the query result, the
buffer pool, the plan cache, the probing service, the front end).
"""

import pytest

from repro import obs
from repro.core import CostModelBuilder, G1, G3
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.server import MDBSServer
from repro.obs.expose import _DASH_COUNTERS
from repro.obs.metrics import MetricsRegistry
from repro.serving import ServingConfig, ServingFrontEnd
from repro.workload import make_site

DASHBOARD_NAMES = {name for name, _ in _DASH_COUNTERS}


def _counted(method):
    def counted(self, name, *args):
        outermost = not self._inside
        if outermost:
            self.calls.append(name)
            self._inside = True
        try:
            return method(self, name, *args)
        finally:
            if outermost:
                self._inside = False

    return counted


class CountingRegistry(MetricsRegistry):
    """Logs the metric name of every registry call made from outside it."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []
        self._inside = False

    inc = _counted(MetricsRegistry.inc)
    set_gauge = _counted(MetricsRegistry.set_gauge)
    observe = _counted(MetricsRegistry.observe)
    counter = _counted(MetricsRegistry.counter)
    gauge = _counted(MetricsRegistry.gauge)
    histogram = _counted(MetricsRegistry.histogram)


@pytest.fixture
def counting():
    registry = CountingRegistry()
    previous = obs.set_registry(registry)
    yield registry
    obs.set_registry(previous)


class TestCountingRegistry:
    def test_counts_each_outside_call_once(self, counting):
        obs.inc("a")  # creates the counter through counter(): one call
        obs.inc("a")
        obs.observe("h", 1.0)
        counting.counter("a").add(1.0)  # the handle request counts
        assert counting.calls == ["a", "a", "h", "a"]


@pytest.fixture(scope="module")
def budget_site():
    return make_site("budget_site", environment_kind="uniform", scale=0.008, seed=41)


class TestEngineAndSampling:
    def test_charge_records_nothing(self, budget_site, counting):
        database = budget_site.database
        run = database.run("select a1 from R1 where a1 < 500")
        for _ in range(5):
            database.charge(run)
        assert counting.calls == []

    def test_probe_observe_records_nothing(self, budget_site, counting):
        probe = CostModelBuilder(budget_site.database).probe
        for _ in range(5):
            probe.observe()
        assert counting.calls == []

    def test_collect_records_nothing(self, budget_site, counting):
        builder = CostModelBuilder(budget_site.database)
        queries = budget_site.generator.queries_for(G1, 12)
        assert len(builder.collect(queries)) == len(queries)
        assert counting.calls == []


@pytest.fixture(scope="module")
def budget_mdbs():
    """Two dynamic sites with G1 and G3 models, probe readings pinned."""
    server = MDBSServer(probe_ttl=1e9)
    for name, profile, seed in (
        ("oracle_site", ORACLE_LIKE, 43),
        ("db2_site", DB2_LIKE, 44),
    ):
        site = make_site(
            name, profile=profile, environment_kind="uniform", scale=0.008, seed=seed
        )
        server.register_agent(MDBSAgent(site.database))
        builder = CostModelBuilder(site.database)
        for query_class in (G1, G3):
            queries = site.generator.queries_for(query_class, 80)
            outcome = builder.build(query_class, queries, algorithm="iupma")
            server.store_cost_model(name, outcome.model)
    return server


class TestServedRequest:
    def test_cached_request_records_only_dashboard_totals(self, budget_mdbs):
        query = GlobalJoinQuery(
            "oracle_site", "R1", "db2_site", "R2", "a4", "a4", ("R1.a1", "R2.a2")
        )
        requests = 4
        with ServingFrontEnd(budget_mdbs, ServingConfig()) as frontend:
            assert frontend.submit(query).ok  # plans and fills the cache
            registry = CountingRegistry()
            previous = obs.set_registry(registry)
            try:
                tickets = [frontend.submit(query) for _ in range(requests)]
            finally:
                obs.set_registry(previous)
        assert all(t.ok and t.plan_source == "cache" for t in tickets)
        assert len(registry.calls) <= 6 * requests
        assert set(registry.calls) <= DASHBOARD_NAMES
