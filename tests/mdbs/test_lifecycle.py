"""End-to-end model lifecycle: derive -> publish -> serve -> maintain -> rollback.

Uses its own single-site MDBS (separate from the session-scoped
``mini_mdbs``) because maintenance deliberately mutates the site:
rebuilds advance the simulated clock and move the catalog baseline.
"""

import pytest

from repro import obs
from repro.core.builder import BuilderConfig
from repro.core.classification import G1
from repro.engine.profiles import ORACLE_LIKE
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.registry import config_fingerprint
from repro.mdbs.server import MDBSServer
from repro.workload import make_site

TABLES = ["R1", "R2", "R3", "R4"]
REBUILD_PERIOD = 50_000.0


@pytest.fixture(scope="module")
def lifecycle():
    site = make_site(
        "lifesite", profile=ORACLE_LIKE, environment_kind="uniform",
        scale=0.01, seed=77,
    )
    server = MDBSServer()
    server.register_agent(MDBSAgent(site.database))
    return server, site


def test_full_lifecycle(lifecycle):
    server, site = lifecycle
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    try:
        # Derive + publish: registering a class builds the model and
        # publishes it as version 1, with full provenance.
        (v1,) = server.register_model_classes(
            site.name,
            (G1,),
            lambda query_class, n: site.generator.queries_for(
                query_class, n, tables=TABLES
            ),
            sample_count=lambda query_class: 40,
            rebuild_period_seconds=REBUILD_PERIOD,
        ).values()
        assert v1.version == 1
        assert v1.provenance.algorithm == "iupma"
        assert v1.provenance.sample_size == 40
        assert v1.provenance.trigger is None
        assert v1.provenance.config_hash == config_fingerprint(BuilderConfig())
        assert 0.0 <= v1.provenance.derived_at <= site.environment.now

        # Serve: the registry resolves to the active version.
        assert server.catalog.registry.active_model(site.name, "G1") is v1.model

        # Nothing due yet: the rebuild period hasn't elapsed and the
        # catalog hasn't changed.
        assert server.maintain() == {site.name: {}}
        assert len(server.catalog.registry.history(site.name, "G1")) == 1

        # Maintain: once the rebuild period elapses, maintain() re-derives
        # and publishes version 2 — version 1 stays in the history.
        site.environment.advance(REBUILD_PERIOD + 1.0)
        results = server.maintain()
        assert set(results[site.name]) == {"G1"}
        history = server.catalog.registry.history(site.name, "G1")
        assert [v.version for v in history] == [1, 2]
        v2 = server.catalog.registry.active_version(site.name, "G1")
        assert v2.version == 2
        assert server.catalog.registry.active_model(site.name, "G1") is results[site.name][
            "G1"
        ].model
        assert v2.provenance.derived_at > v1.provenance.derived_at
        assert v2.provenance.trigger.startswith("drift[period] lifesite/G1")

        # Rollback: the previously active version is served again, and the
        # superseded one is still in the history.
        restored = server.rollback_model(site.name, "G1")
        assert restored.version == 1
        assert server.catalog.registry.active_model(site.name, "G1") is v1.model
        assert [
            v.version for v in server.catalog.registry.history(site.name, "G1")
        ] == [1, 2]

        assert registry.counter_value("mdbs.registry.published") == 2.0
        assert registry.counter_value("mdbs.maintenance_runs") == 2.0
        # The rollback and the version count live on the registry itself.
        assert server.catalog.registry.active_version(site.name, "G1").version == 1
        assert len(server.catalog.registry) == 2
    finally:
        obs.set_registry(previous)


def test_catalog_change_triggers_rebuild(lifecycle):
    server, site = lifecycle
    before = len(server.catalog.registry.history(site.name, "G1"))

    # An occasionally-changing factor: a new table appears at the site
    # (R1..R12 exist already; R13 does not).
    site.database.create_table(
        "R13",
        site.database.catalog.table("R1").schema.columns,
        [],
    )
    try:
        results = server.maintain()
    finally:
        site.database.catalog.drop_table("R13")
    # Dropping R13 again is a catalog change of its own.
    assert "G1" in server.maintain()[site.name]

    assert "G1" in results[site.name]
    history = server.catalog.registry.history(site.name, "G1")
    assert len(history) == before + 2
    assert "R13: table_added" in history[-2].provenance.trigger
    # The fresh version is active (publication re-activates after the
    # rollback in the previous test).
    assert (
        server.catalog.registry.active_version(site.name, "G1").version
        == history[-1].version
    )


def test_maintenance_invalidates_probe_cache(lifecycle):
    server, site = lifecycle
    server.probing.ttl = 600.0
    try:
        server.probing.probe(site.name)
        executed = server.probing.probes_executed[site.name]
        site.environment.advance(REBUILD_PERIOD + 1.0)
        results = server.maintain()
        assert results[site.name]  # the period elapsed, so it rebuilt
        server.probing.probe(site.name)
        assert server.probing.probes_executed[site.name] == executed + 1
    finally:
        server.probing.ttl = 0.0
        server.probing.invalidate()
