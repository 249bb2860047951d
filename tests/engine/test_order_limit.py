"""Unit tests for ORDER BY / LIMIT in queries, SQL, and execution."""

import pytest

from repro.engine.access import seq_scan
from repro.engine.errors import QueryError, SQLSyntaxError
from repro.engine.predicate import Comparison
from repro.engine.query import SelectQuery
from repro.engine.sql import parse_query

from ..conftest import make_test_table


@pytest.fixture
def table():
    return make_test_table(rows=300, seed=30)


class TestQueryShape:
    def test_defaults_off(self):
        query = SelectQuery("t")
        assert query.order_by == ()
        assert query.limit is None

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryError):
            SelectQuery("t", limit=-1)

    def test_validate_checks_order_columns(self, table):
        query = SelectQuery("t", ("a",), order_by=(("zz", True),))
        with pytest.raises(QueryError):
            query.validate(table.schema)

    def test_str_rendering(self):
        query = SelectQuery(
            "t",
            ("a",),
            Comparison("b", "<", 5),
            order_by=(("a", True), ("b", False)),
            limit=10,
        )
        text = str(query)
        assert "ORDER BY a, b DESC" in text
        assert "LIMIT 10" in text


class TestSQL:
    def test_parse_order_by(self):
        query = parse_query("select a from t order by a desc, b")
        assert query.order_by == (("a", False), ("b", True))

    def test_parse_limit(self):
        query = parse_query("select a from t where a > 1 limit 25")
        assert query.limit == 25

    def test_parse_asc_keyword(self):
        query = parse_query("select a from t order by a asc")
        assert query.order_by == (("a", True),)

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("select a from t limit 2.5")

    def test_order_by_join_rejected(self):
        from repro.engine.schema import Column, TableSchema
        from repro.engine.types import DataType

        schemas = {
            "r": TableSchema("r", [Column("a", DataType.INT)]),
            "s": TableSchema("s", [Column("a", DataType.INT)]),
        }
        with pytest.raises(SQLSyntaxError):
            parse_query("select r.a from r join s on r.a = s.a limit 5", schemas)

    def test_roundtrip_through_str(self):
        query = SelectQuery(
            "t", ("a", "b"), Comparison("c", ">", 2), (("b", False),), 7
        )
        reparsed = parse_query(str(query))
        assert reparsed.order_by == query.order_by
        assert reparsed.limit == query.limit


class TestExecution:
    def test_order_by_sorts_result(self, table):
        query = SelectQuery("t", ("a", "b"), order_by=(("a", True),))
        rows = seq_scan(table, query).result.rows
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_descending_order(self, table):
        query = SelectQuery("t", ("a",), order_by=(("a", False),))
        rows = seq_scan(table, query).result.rows
        values = [r[0] for r in rows]
        assert values == sorted(values, reverse=True)

    def test_secondary_sort_key(self, table):
        query = SelectQuery("t", ("c", "a"), order_by=(("c", True), ("a", True)))
        rows = seq_scan(table, query).result.rows
        assert rows == sorted(rows)

    def test_limit_truncates_after_sort(self, table):
        query = SelectQuery("t", ("a",), order_by=(("a", True),), limit=5)
        execution = seq_scan(table, query)
        assert execution.result.cardinality == 5
        smallest = sorted(table.column_values("a"))[:5]
        assert [r[0] for r in execution.result.rows] == smallest

    def test_limit_zero(self, table):
        query = SelectQuery("t", ("a",), limit=0)
        assert seq_scan(table, query).result.cardinality == 0

    def test_limit_larger_than_result(self, table):
        query = SelectQuery("t", ("a",), Comparison("a", "<", 5), limit=10_000)
        execution = seq_scan(table, query)
        assert execution.result.cardinality == len(
            [r for r in table.rows() if r[0] < 5]
        )

    def test_sort_charged_in_metrics(self, table):
        plain = seq_scan(table, SelectQuery("t", ("a",)))
        ordered = seq_scan(table, SelectQuery("t", ("a",), order_by=(("a", True),)))
        assert plain.metrics.sort_comparisons == 0
        assert ordered.metrics.sort_comparisons > 0

    def test_tuples_output_reflects_limit(self, table):
        query = SelectQuery("t", ("a",), limit=3)
        execution = seq_scan(table, query)
        assert execution.metrics.tuples_output == 3

    def test_database_end_to_end(self, small_database):
        result = small_database.execute(
            "select a, b from t1 where b < 20 order by a desc limit 4"
        )
        assert result.cardinality <= 4
        values = [r[0] for r in result.result.rows]
        assert values == sorted(values, reverse=True)
