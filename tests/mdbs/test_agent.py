"""Unit tests for the MDBS agent."""

import pytest

from repro.core.classification import G1
from repro.core.probing import ProbingCostEstimator
from repro.engine.errors import CatalogError
from repro.engine.predicate import Comparison
from repro.engine.query import SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType
from repro.mdbs.agent import MDBSAgent


@pytest.fixture
def agent(dynamic_database):
    return MDBSAgent(dynamic_database)


class TestInterface:
    def test_execute_passthrough(self, agent):
        result = agent.execute("select a from t1 where b < 50")
        assert result.cardinality > 0

    def test_classify(self, agent):
        assert agent.classify("select a from t1 where b < 50") is G1

    def test_site_name(self, agent):
        assert agent.site == "dyn_db"


class TestProbing:
    def test_observed_probing_cost(self, agent):
        assert agent.observed_probing_cost() > 0

    def test_estimated_requires_calibration(self, agent):
        with pytest.raises(RuntimeError):
            agent.estimated_probing_cost()

    def test_calibrate_then_estimate(self, agent):
        estimator = ProbingCostEstimator()
        estimator.calibrate(agent.probe, agent.monitor, samples=40, interval_seconds=45.0)
        calibrated = MDBSAgent(agent.database, agent.probe, estimator=estimator)
        estimated = calibrated.estimated_probing_cost()
        assert isinstance(estimated, float)
        # Eq. (2) and the executed probe agree on the same environment.
        observed = calibrated.observed_probing_cost()
        assert estimated == pytest.approx(observed, abs=max(1.0, observed))


class TestFactsExport:
    def test_export_covers_all_tables(self, agent):
        facts = agent.export_table_facts()
        assert {f.name for f in facts} == {"t1"}
        (f,) = facts
        assert f.cardinality == 400
        assert f.tuple_length == 16
        assert f.column_stats["a"][0] is not None  # min
        assert f.site == "dyn_db"

    def test_export_includes_indexes(self, small_database):
        agent = MDBSAgent(small_database)
        facts = {f.name: f for f in agent.export_table_facts()}
        assert facts["t1"].indexed_columns == {"a": "nonclustered"}
        assert facts["t2"].indexed_columns == {"b": "clustered"}
        assert facts["t2"].clustered_on == "b"


class TestTempTables:
    def test_create_query_drop(self, agent):
        agent.create_temp_table("_tmp", ("x", "y"), (8, 8), [(1, 2), (3, 4)])
        result = agent.execute(SelectQuery("_tmp"))
        assert sorted(result.result.rows) == [(1, 2), (3, 4)]
        agent.drop_temp_table("_tmp")
        with pytest.raises(CatalogError):
            agent.execute(SelectQuery("_tmp"))

    def test_recreate_replaces(self, agent):
        agent.create_temp_table("_tmp", ("x",), (8,), [(1,)])
        agent.create_temp_table("_tmp", ("x",), (8,), [(2,), (3,)])
        result = agent.execute(SelectQuery("_tmp"))
        assert result.cardinality == 2
        agent.drop_temp_table("_tmp")

    def test_empty_shipment_allowed(self, agent):
        agent.create_temp_table("_tmp", ("x",), (8,), [])
        assert agent.execute(SelectQuery("_tmp")).cardinality == 0
        agent.drop_temp_table("_tmp")

    def test_types_inferred_from_first_row(self, agent):
        agent.create_temp_table("_tmp", ("x", "s"), (8, 16), [(1, "a")])
        table = agent.database.catalog.table("_tmp")
        assert table.schema.column("x").dtype.value == "int"
        assert table.schema.column("s").dtype.value == "str"
        agent.drop_temp_table("_tmp")

    def test_shipped_result_loads_by_column_or_by_row_as_its_values_allow(self, agent):
        """A shipped query result gives the same temp table as its row
        list: its typed numeric arrays are taken as they are, and a
        string column is validated through the result's rows."""
        database = agent.database
        database.create_table(
            "src",
            [Column("i", DataType.INT), Column("f", DataType.FLOAT),
             Column("s", DataType.STR, 8), Column("w", DataType.INT)],
            [(1, 0.5, "a\x00", 2**63 - 1), (2, -0.0, "b ", 5), (3, 2.0**53, "", -(2**63))],
        )
        try:
            for columns in [("i", "f"), ("f", "i", "s"), ("i", "w")]:
                shipped = agent.execute(SelectQuery("src", columns)).result
                widths = (8,) * len(columns)
                agent.create_temp_table("_tmp", columns, widths, shipped)
                table = database.catalog.table("_tmp")
                from_result = (table.schema.columns, table.statistics, table.rows())
                agent.create_temp_table("_tmp", columns, widths, list(shipped.rows))
                table = database.catalog.table("_tmp")
                assert (table.schema.columns, table.statistics) == from_result[:2]
                assert [[(type(v), repr(v)) for v in row] for row in table.rows()] == [
                    [(type(v), repr(v)) for v in row] for row in from_result[2]
                ]
            # An empty shipment has no first row to type from: FLOAT columns.
            empty = agent.execute(
                SelectQuery("src", ("i", "s"), Comparison("i", "<", 0))
            ).result
            agent.create_temp_table("_tmp", ("i", "s"), (8, 8), empty)
            table = database.catalog.table("_tmp")
            assert [c.dtype for c in table.schema.columns] == [DataType.FLOAT] * 2
            assert table.cardinality == 0 and table.rows() == []
        finally:
            agent.drop_temp_table("_tmp")
            database.catalog.drop_table("src")

    def test_create_join_drop_cycle_never_sees_a_stale_table(self, agent):
        """The shipped-intermediate cycle under one reused name: every
        round's join must read that round's rows, schema and (absent)
        indexes, whatever the previous round left behind."""
        database = agent.database
        for round_, width in enumerate((3, 5, 2)):
            rows = [(k, k + round_) for k in range(width)]
            columns = ("k", f"v{round_}")
            agent.create_temp_table("_ship", columns, (8, 8), rows)
            if round_ == 1:
                database.create_index("_ship_k", "_ship", "k")
            expected = 0 if round_ != 1 else 1
            assert len(database.catalog.indexes_for("_ship")) == expected
            result = agent.execute(
                f"select _ship.{columns[1]}, t1.a from _ship join t1 on _ship.k = t1.b"
            )
            keys = [row[1] for row in database.catalog.table("t1").rows()]
            assert result.cardinality == sum(keys.count(k) for k in range(width))
            assert result.result.column_names[0].endswith(columns[1])
            agent.drop_temp_table("_ship")
            assert database.catalog.indexes_for("_ship") == []
            assert "_ship" not in database.catalog.schemas
