"""Unit tests for LocalDatabase: DDL, planning, timed execution."""

import numpy as np
import pytest

from repro.engine.access import clustered_index_scan, nonclustered_index_scan
from repro.engine.database import LocalDatabase
from repro.engine.errors import CatalogError, SchemaError, TypeError_
from repro.engine.joins import index_nested_loop_join
from repro.engine.optimizer import JoinPlan, UnaryPlan
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType
from repro.env.environment import dynamic_uniform_environment

from .reference import filter_rows, naive_join


class TestDDL:
    def test_create_table_with_rows(self, small_database):
        assert small_database.catalog.table("t1").cardinality == 600

    def test_insert_maintains_indexes(self, small_database):
        small_database.insert("t1", (5, 6, 7))
        index = small_database.catalog.index("t1_a")
        rids = index.range_lookup(5, 5)
        assert any(small_database.catalog.table("t1").rows()[r] == (5, 6, 7) for r in rids)

    @pytest.mark.parametrize("load", ["insert", "bulk_load"])
    def test_new_rows_keep_clustering_and_indexes(self, small_database, load):
        """Rows added to a clustered, indexed table: the heap is sorted on
        the clustered key again and every index finds every row."""
        rows = [(5, 7, 1), (999, 0, 2), (6, 99, 3)]
        if load == "insert":
            for row in rows:
                small_database.insert("t2", row)
        else:
            assert small_database.bulk_load("t2", rows) == len(rows)
        table = small_database.catalog.table("t2")
        assert table.cardinality == 403
        assert table.column_values("b") == sorted(table.column_values("b"))
        for index in small_database.catalog.indexes_for("t2"):
            position = table.schema.position(index.column_name)
            for row in rows:
                key = row[position]
                assert row in [table.rows()[r] for r in index.range_lookup(key, key)]
            assert sorted(index.range_lookup()) == list(range(403))

    def test_failed_bulk_load_keeps_indexes(self, small_database):
        indexes = small_database.catalog.indexes_for("t2")
        with pytest.raises(SchemaError):
            small_database.bulk_load("t2", [(1, 2, 3), (1, 2)])
        assert small_database.catalog.indexes_for("t2") == indexes

    def test_clustered_index_sorts_table(self, small_database):
        values = small_database.catalog.table("t2").column_values("b")
        assert values == sorted(values)

    def test_second_clustered_index_rejected(self, small_database):
        with pytest.raises(CatalogError):
            small_database.create_index("t2_c2", "t2", "c", clustered=True)

    def test_clustering_rebuilds_other_indexes(self):
        db = LocalDatabase("db", noise_sigma=0.0)
        db.create_table(
            "t",
            [Column("a", DataType.INT), Column("b", DataType.INT)],
            [(3, 30), (1, 10), (2, 20)],
        )
        db.create_index("t_a", "t", "a")
        db.create_index("t_b", "t", "b", clustered=True)
        # After clustering on b, the a-index must map to the new row ids.
        index = db.catalog.index("t_a")
        (rid,) = index.range_lookup(3, 3)
        assert db.catalog.table("t").rows()[rid] == (3, 30)


class TestPlanning:
    def test_plan_unary(self, small_database):
        plan = small_database.plan("select a from t1 where a < 20")
        assert isinstance(plan, UnaryPlan)
        assert plan.method == "nonclustered_index_scan"

    def test_plan_join(self, small_database):
        plan = small_database.plan(
            JoinQuery("t1", "t2", "c", "c")
        )
        assert isinstance(plan, JoinPlan)

    def test_parse_resolves_schemas(self, small_database):
        query = small_database.parse(
            "select t1.a from t1 join t2 on t1.c = t2.c where t1.a < 5"
        )
        assert isinstance(query, JoinQuery)
        # Qualifiers are stripped for per-operand evaluation.
        assert query.left_predicate == Comparison("a", "<", 5)

    def test_parse_ambiguous_join_column_rejected(self, small_database):
        from repro.engine.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            small_database.parse("select t1.a from t1 join t2 on c = c")


class TestExecution:
    def test_execute_unary_rows_correct(self, small_database):
        result = small_database.execute("select a, b from t1 where b < 10")
        table = small_database.catalog.table("t1")
        expected = sorted((r[0], r[1]) for r in table.rows() if r[1] < 10)
        assert sorted(result.result.rows) == expected

    def test_execute_join_rows_correct(self, small_database):
        query = JoinQuery(
            "t1", "t2", "c", "c", ("t1.a", "t2.b"), Comparison("a", "<", 100)
        )
        result = small_database.execute(query)
        t1 = small_database.catalog.table("t1")
        t2 = small_database.catalog.table("t2")
        assert sorted(result.result.rows) == sorted(naive_join(t1, t2, query).result.rows)

    def test_elapsed_positive_and_breakdown_consistent(self, small_database):
        result = small_database.execute("select a from t1")
        assert result.elapsed > 0
        assert result.elapsed == pytest.approx(
            result.breakdown.base_time
            * result.breakdown.slowdown
            * result.breakdown.noise
        )

    def test_execution_advances_clock(self, small_database):
        before = small_database.environment.now
        result = small_database.execute("select a from t1")
        assert small_database.environment.now == pytest.approx(before + result.elapsed)

    def test_static_env_slowdown_is_one(self, small_database):
        result = small_database.execute("select a from t1")
        assert result.breakdown.slowdown == 1.0
        assert result.contention_level == 0.0

    def test_noiseless_database_deterministic(self, small_database):
        r1 = small_database.execute("select a from t1 where b < 50")
        r2 = small_database.execute("select a from t1 where b < 50")
        assert r1.elapsed == pytest.approx(r2.elapsed)

    def test_dynamic_env_inflates_cost(self):
        rows = [(i % 1000, i % 100) for i in range(2000)]
        cols = [Column("a", DataType.INT), Column("b", DataType.INT)]
        static_db = LocalDatabase("s", noise_sigma=0.0)
        static_db.create_table("t", cols, rows)
        dyn_db = LocalDatabase(
            "d", environment=dynamic_uniform_environment(seed=3), noise_sigma=0.0
        )
        dyn_db.create_table("t", cols, rows)
        # Walk the dynamic environment to a loaded epoch.
        dyn_db.environment.advance(300.0)
        while dyn_db.environment.level() < 0.5:
            dyn_db.environment.advance(30.0)
        q = SelectQuery("t", ("a",))
        assert dyn_db.execute(q).elapsed > static_db.execute(q).elapsed

    def test_infos_per_query_shape(self, small_database):
        unary = small_database.execute("select a from t1")
        assert len(unary.infos) == 1
        join = small_database.execute(JoinQuery("t1", "t2", "c", "c"))
        assert len(join.infos) == 2

    def test_invalid_noise_sigma_rejected(self):
        with pytest.raises(ValueError):
            LocalDatabase("x", noise_sigma=-0.1)


class TestSimulationForking:
    def test_restore_rewinds_clock_and_rng(self):
        from repro.engine.database import LocalDatabase
        from repro.engine.schema import Column
        from repro.engine.types import DataType
        from repro.env.environment import dynamic_uniform_environment

        db = LocalDatabase(
            "fork", environment=dynamic_uniform_environment(seed=9), seed=9
        )
        db.create_table(
            "t",
            [Column("a", DataType.INT)],
            [(i % 100,) for i in range(1500)],
        )
        db.environment.advance(500.0)
        snapshot = db.save_state()
        first = db.execute("select a from t where a < 50")
        db.restore_state(snapshot)
        second = db.execute("select a from t where a < 50")
        # Identical state -> identical contention, noise, and elapsed.
        assert second.elapsed == pytest.approx(first.elapsed)
        assert second.contention_level == first.contention_level
        assert db.environment.now == pytest.approx(
            snapshot["time"] + second.elapsed
        )

    def test_clock_reset_validation(self):
        from repro.env.clock import SimulationClock

        clock = SimulationClock(10.0)
        clock.reset(3.0)
        assert clock.now == 3.0
        with pytest.raises(ValueError):
            clock.reset(-1.0)


class TestNaNNeverReachesAColumn:
    """The cases that once returned wrong rows through every index path: a
    400-row FLOAT column drawn from {NaN, 1.0 … 6.0}.  Loading it now
    fails; the same rows without NaN return the true rows on each path."""

    COLUMNS = [Column("id", DataType.INT), Column("x", DataType.FLOAT)]

    @staticmethod
    def values(count, seed):
        rng = np.random.default_rng(seed)
        return [float("nan") if v == 0 else float(v) for v in rng.integers(0, 7, size=count)]

    def database(self, values, clustered):
        db = LocalDatabase("nan", noise_sigma=0.0)
        db.create_table("t", self.COLUMNS, list(enumerate(values)))
        db.create_index("t_x", "t", "x", clustered=clustered)
        return db

    @pytest.mark.parametrize(
        "kind, sql",
        [
            ("nonclustered", "select id, x from t where x = 5.0"),
            ("clustered", "select id, x from t where x = 5.0"),
            ("clustered", "select id, x from t where x >= 4.0 and x <= 6.0"),
            ("clustered", "select id, x from t where x < 3.0"),
        ],
    )
    def test_index_scans(self, kind, sql):
        values = self.values(400, seed=21)
        with pytest.raises(TypeError_, match="NaN"):
            self.database(values, kind == "clustered")
        db = self.database([v for v in values if v == v], kind == "clustered")
        query = db.parse(sql)
        table, index = db.catalog.table("t"), db.catalog.index("t_x")
        scan = clustered_index_scan if kind == "clustered" else nonclustered_index_scan
        got = sorted(scan(table, index, query).result.rows)
        truth = sorted(filter_rows(table, query.predicate))
        assert got == truth and truth

    def test_index_nested_loop_join(self):
        outer = self.values(400, seed=21)
        with pytest.raises(TypeError_, match="NaN"):
            self.database(self.values(300, seed=22), clustered=False)
        db = self.database([v for v in self.values(300, seed=22) if v == v], clustered=False)
        db.create_table("o", self.COLUMNS, [(i, v) for i, v in enumerate(outer) if v == v])
        query = JoinQuery("o", "t", "x", "x", ("o.id", "t.id"))
        left, right = db.catalog.table("o"), db.catalog.table("t")
        got = index_nested_loop_join(left, right, query, db.catalog.index("t_x"))
        truth = naive_join(left, right, query)
        assert sorted(got.result.rows) == sorted(truth.result.rows)
        assert got.result.cardinality > 0
