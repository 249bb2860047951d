"""Unit tests for the local catalog."""

import pytest

from repro.engine.catalog import LocalCatalog
from repro.engine.database import LocalDatabase
from repro.engine.errors import CatalogError, QueryError
from repro.engine.index import Index, IndexKind
from repro.engine.schema import Column
from repro.engine.types import DataType

from ..conftest import make_test_table


@pytest.fixture
def catalog():
    cat = LocalCatalog()
    cat.add_table(make_test_table("t1", rows=50))
    cat.add_table(make_test_table("t2", rows=50))
    return cat


class TestTables:
    def test_lookup(self, catalog):
        assert catalog.table("t1").name == "t1"
        assert catalog.has_table("t2")
        assert not catalog.has_table("t3")

    def test_table_names_sorted(self, catalog):
        assert catalog.table_names == ["t1", "t2"]

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_table(make_test_table("t1", rows=1))

    def test_missing_lookup_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("nope")

    def test_drop_table(self, catalog):
        catalog.drop_table("t1")
        assert not catalog.has_table("t1")

    def test_drop_missing_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")

    def test_drop_table_removes_its_indexes(self, catalog):
        index = Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED)
        catalog.add_index(index)
        catalog.drop_table("t1")
        with pytest.raises(CatalogError):
            catalog.index("i1")


class TestIndexes:
    def test_add_and_lookup(self, catalog):
        index = Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED)
        catalog.add_index(index)
        assert catalog.index("i1") is index

    def test_duplicate_index_rejected(self, catalog):
        index = Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED)
        catalog.add_index(index)
        with pytest.raises(CatalogError):
            catalog.add_index(Index("i1", catalog.table("t2"), "a", IndexKind.NONCLUSTERED))

    def test_indexes_for_filters_by_table(self, catalog):
        i1 = Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED)
        i2 = Index("i2", catalog.table("t2"), "b", IndexKind.NONCLUSTERED)
        catalog.add_index(i1)
        catalog.add_index(i2)
        assert catalog.indexes_for("t1") == [i1]
        assert catalog.indexes_for("t2") == [i2]

    def test_index_on(self, catalog):
        i1 = Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED)
        catalog.add_index(i1)
        assert catalog.index_on("t1", "a") is i1
        assert catalog.index_on("t1", "b") is None

    def test_drop_index(self, catalog):
        catalog.add_index(Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED))
        catalog.drop_index("i1")
        assert catalog.index_on("t1", "a") is None

    def test_index_for_unknown_table_rejected(self, catalog):
        foreign = make_test_table("t9", rows=5)
        with pytest.raises(CatalogError):
            catalog.add_index(Index("i9", foreign, "a", IndexKind.NONCLUSTERED))


class TestIndexListsFollowTheIndexSet:
    """``indexes_for`` serves a kept per-table list; every way the index
    set can change must reach it."""

    def test_ordered_by_index_name_whatever_the_insertion_order(self, catalog):
        t1 = catalog.table("t1")
        made = {
            name: Index(name, t1, column, IndexKind.NONCLUSTERED)
            for name, column in (("m", "b"), ("z", "c"), ("a", "a"))
        }
        for index in made.values():
            catalog.add_index(index)
        assert catalog.indexes_for("t1") == [made["a"], made["m"], made["z"]]
        assert catalog.indexes_for("t2") == []

    def test_returned_list_is_the_callers_own(self, catalog):
        catalog.add_index(Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED))
        catalog.indexes_for("t1").clear()
        assert [i.name for i in catalog.indexes_for("t1")] == ["i1"]

    def test_drop_index_leaves_the_others(self, catalog):
        t1 = catalog.table("t1")
        for name, column in (("i_a", "a"), ("i_b", "b")):
            catalog.add_index(Index(name, t1, column, IndexKind.NONCLUSTERED))
        catalog.drop_index("i_a")
        assert [i.name for i in catalog.indexes_for("t1")] == ["i_b"]
        assert catalog.index_on("t1", "a") is None
        assert catalog.index_on("t1", "b").name == "i_b"

    def test_recreated_table_starts_without_indexes(self, catalog):
        catalog.add_index(Index("i1", catalog.table("t1"), "a", IndexKind.NONCLUSTERED))
        catalog.drop_table("t1")
        assert catalog.indexes_for("t1") == []
        replacement = make_test_table("t1", rows=20, seed=9)
        catalog.add_table(replacement)
        assert catalog.indexes_for("t1") == []
        assert catalog.schemas["t1"] is replacement.schema
        fresh = Index("i1", replacement, "b", IndexKind.NONCLUSTERED)
        catalog.add_index(fresh)  # the old i1 went with the old table
        assert catalog.indexes_for("t1") == [fresh]
        assert catalog.index_on("t1", "a") is None

    def test_schema_map_is_live_and_read_only(self, catalog):
        assert set(catalog.schemas) == {"t1", "t2"}
        catalog.drop_table("t2")
        assert set(catalog.schemas) == {"t1"}
        with pytest.raises(TypeError):
            catalog.schemas["t9"] = catalog.table("t1").schema


class TestPlannerSeesIndexChanges:
    @pytest.fixture
    def database(self):
        db = LocalDatabase("db", noise_sigma=0.0)
        db.create_table(
            "t",
            [Column("a", DataType.INT), Column("b", DataType.INT)],
            [(i, (i * 7) % 200) for i in range(200)],
        )
        db.analyze()
        return db

    def test_create_then_drop_index_moves_the_plan(self, database):
        sql = "select a from t where a < 10"
        assert database.plan(sql).method == "seq_scan"
        database.create_index("t_a", "t", "a")
        plan = database.plan(sql)
        assert (plan.method, plan.index.name) == ("nonclustered_index_scan", "t_a")
        database.catalog.drop_index("t_a")
        assert database.plan(sql).method == "seq_scan"
        assert database.execute(sql).cardinality == 10

    def test_clustering_a_table_that_has_indexes_rebuilds_them(self, database):
        """``create_index(clustered=True)`` drops and re-adds every index
        already on the table; the kept list must end up with the rebuilt
        objects, once each, in name order."""
        database.create_index("t_a", "t", "a")
        stale = database.catalog.index("t_a")
        database.create_index("t_b", "t", "b", clustered=True)
        names = [i.name for i in database.catalog.indexes_for("t")]
        assert names == ["t_a", "t_b"]
        rebuilt = database.catalog.index_on("t", "a")
        assert rebuilt is database.catalog.index("t_a") and rebuilt is not stale
        plan = database.plan("select a from t where b < 10")
        assert (plan.method, plan.index.name) == ("clustered_index_scan", "t_b")
        result = database.execute("select a from t where a < 10")
        assert result.plan == "nonclustered_index_scan"
        assert sorted(result.result.rows) == [(i,) for i in range(10)]

    def test_recreated_table_is_planned_and_parsed_afresh(self, database):
        database.create_index("t_a", "t", "a")
        database.catalog.drop_table("t")
        database.create_table("t", [Column("x", DataType.INT)], [(i,) for i in range(50)])
        database.analyze()
        assert database.plan("select x from t where x < 5").method == "seq_scan"
        assert database.execute("select x from t where x < 5").cardinality == 5
        with pytest.raises(QueryError):
            database.execute("select a from t where a < 5")
