"""Unit tests for cost-model maintenance (§2 occasionally-changing factors).

The catalog check and the period rule live in
:mod:`repro.mdbs.lifecycle`; these tests drive them at one site without
an MDBS server: :class:`TestChangeDetector` the catalog diff, and
:class:`TestModelMaintainer` the lifecycle's catalog/period pass.
"""

import pytest

from repro.core.builder import CostModelBuilder
from repro.core.classification import G1
from repro.mdbs.lifecycle import ModelLifecycle, catalog_changes, catalog_snapshot
from repro.mdbs.registry import CostModelRegistry
from repro.obs.quality import AccuracyTracker
from repro.workload import make_site


@pytest.fixture
def site():
    return make_site("maint_site", environment_kind="uniform", scale=0.008, seed=33)


def changes_since(baseline, site):
    return catalog_changes(baseline, catalog_snapshot(site.database))


class TestChangeDetector:
    """The catalog diff behind the ``catalog`` rule."""

    def test_no_changes_initially(self, site):
        assert changes_since(catalog_snapshot(site.database), site) == []

    def test_small_growth_not_significant(self, site):
        baseline = catalog_snapshot(site.database)
        table = site.database.catalog.table("R1")
        row = table.rows()[0]
        for _ in range(int(table.cardinality * 0.05)):
            table.insert(row)
        assert changes_since(baseline, site) == []

    def test_accumulated_growth_detected(self, site):
        baseline = catalog_snapshot(site.database)
        table = site.database.catalog.table("R1")
        row = table.rows()[0]
        for _ in range(int(table.cardinality * 0.5)):
            table.insert(row)
        assert any(c.startswith("R1: cardinality") for c in changes_since(baseline, site))

    def test_new_index_detected(self, site):
        baseline = catalog_snapshot(site.database)
        site.database.create_index("extra", "R1", "a5")
        assert any(c.startswith("R1: indexes") for c in changes_since(baseline, site))

    def test_new_and_dropped_tables_detected(self, site):
        baseline = catalog_snapshot(site.database)
        from repro.engine.schema import Column
        from repro.engine.types import DataType

        site.database.create_table("extra", [Column("a", DataType.INT)], [(1,)])
        site.database.catalog.drop_table("R2")
        changes = changes_since(baseline, site)
        assert "extra: table_added (new table)" in changes
        assert "R2: table_dropped (gone)" in changes

    def test_rebase_clears_changes(self, site):
        baseline = catalog_snapshot(site.database)
        site.database.create_index("extra", "R1", "a5")
        assert changes_since(baseline, site)
        assert changes_since(catalog_snapshot(site.database), site) == []

    def test_snapshot_capture_contents(self, site):
        snap = catalog_snapshot(site.database)
        assert "R1" in snap
        assert snap["R3"].clustered_on == "a2"
        assert ("a1", "nonclustered") in snap["R1"].indexed_columns


class TestModelMaintainer:
    """The lifecycle's catalog/period pass at one site."""

    def make_lifecycle(self, site, period=None, build_now=True):
        lifecycle = ModelLifecycle(CostModelRegistry(), AccuracyTracker(export=False))
        lifecycle.watch(
            site.name,
            CostModelBuilder(site.database),
            lambda query_class, n: site.generator.queries_for(query_class, n),
            rebuild_period_seconds=period,
        )
        outcome = lifecycle.register(site.name, G1, 60, build_now=build_now)
        return lifecycle, outcome

    @staticmethod
    def rebuilt(lifecycle):
        return {event.class_label: (event, outcome) for _, event, outcome in lifecycle.rebuilds()}

    def test_initial_build(self, site):
        lifecycle, outcome = self.make_lifecycle(site)
        assert outcome.model.class_label == "G1"
        assert len(outcome.observations) == 60
        # An initial build is no event.
        assert lifecycle.tracker.drift_events == []

    def test_nothing_due_when_stable(self, site):
        lifecycle, _ = self.make_lifecycle(site)
        assert self.rebuilt(lifecycle) == {}

    def test_catalog_change_triggers_rebuild(self, site):
        lifecycle, first = self.make_lifecycle(site)
        site.database.create_index("extra", "R1", "a7")
        rebuilt = self.rebuilt(lifecycle)
        event, outcome = rebuilt["G1"]
        assert event.rule == "catalog" and "R1: indexes" in event.detail
        assert outcome is not first
        assert lifecycle.tracker.drift_events == [event]
        # The baseline moves: no further rebuilds until new changes.
        assert self.rebuilt(lifecycle) == {}

    def test_periodic_rebuild(self, site):
        lifecycle, _ = self.make_lifecycle(site, period=1000.0)
        assert self.rebuilt(lifecycle) == {}  # just built
        site.environment.advance(2000.0)
        event, _ = self.rebuilt(lifecycle)["G1"]
        assert event.rule == "period"
        assert "period" in event.describe()

    def test_register_without_building(self, site):
        lifecycle, outcome = self.make_lifecycle(site, period=10.0, build_now=False)
        assert outcome is None
        # An unbuilt registration is immediately due (never built).
        assert self.rebuilt(lifecycle)["G1"][0].rule == "period"

    def test_default_sample_count_uses_prop41(self, site):
        lifecycle = ModelLifecycle(CostModelRegistry(), AccuracyTracker(export=False))
        builder = CostModelBuilder(site.database)
        drawn = []

        def queries(query_class, n):
            drawn.append(n)
            return site.generator.queries_for(query_class, min(n, 30))

        lifecycle.watch(site.name, builder, queries, rebuild_period_seconds=10.0)
        lifecycle.register(site.name, G1, build_now=False)
        self.rebuilt(lifecycle)
        assert drawn == [builder.sample_size(G1)]

    def test_invalid_period_rejected(self, site):
        lifecycle = ModelLifecycle(CostModelRegistry(), AccuracyTracker(export=False))
        with pytest.raises(ValueError):
            lifecycle.watch(
                site.name,
                CostModelBuilder(site.database),
                lambda query_class, n: [],
                rebuild_period_seconds=0.0,
            )
