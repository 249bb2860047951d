"""Unit tests for repro.engine.table."""

import numpy as np
import pytest

from repro.engine.errors import SchemaError, TypeError_
from repro.engine.schema import Column, TableSchema
from repro.engine.table import ResultTable, Table
from repro.engine.types import DataType

from ..conftest import make_test_table


def simple_table():
    schema = TableSchema("t", [Column("a", DataType.INT), Column("b", DataType.INT)])
    return Table(schema)


class TestTableBasics:
    def test_empty_table(self):
        table = simple_table()
        assert table.cardinality == 0
        assert table.num_pages == 0
        assert table.table_length == 0

    def test_insert_returns_row_id(self):
        table = simple_table()
        assert table.insert((1, 2)) == 0
        assert table.insert((3, 4)) == 1
        assert table.rows()[1] == (3, 4)

    def test_insert_validates(self):
        table = simple_table()
        with pytest.raises(SchemaError):
            table.insert((1,))

    def test_bulk_load_counts(self):
        table = simple_table()
        assert table.bulk_load([(i, i) for i in range(10)]) == 10
        assert table.cardinality == 10

    @pytest.mark.parametrize(
        "bad_row, error", [((3, 3.5), TypeError_), ((3,), SchemaError)]
    )
    def test_bulk_load_is_all_or_nothing(self, bad_row, error):
        table = simple_table()
        table.bulk_load([(1, 10), (2, 20)])
        stats = table.statistics
        array = table.column_array("a")
        with pytest.raises(error):
            table.bulk_load([(7, 70), bad_row, (8, 80)])
        assert table.cardinality == 2
        assert table.rows() == [(1, 10), (2, 20)]
        assert table.statistics is stats
        assert table.column_array("a") is array

    def test_bulk_load_consumes_a_generator_once(self):
        table = simple_table()
        pulled = []

        def rows():
            for i in range(4):
                pulled.append(i)
                yield [i, i * 10]  # lists: the per-row path canonicalises them

        assert table.bulk_load(rows()) == 4
        assert pulled == [0, 1, 2, 3]
        assert table.rows() == [(0, 0), (1, 10), (2, 20), (3, 30)]

    def test_iteration_order(self):
        table = simple_table()
        rows = [(3, 0), (1, 1), (2, 2)]
        table.bulk_load(rows)
        assert table.rows() == rows

    def test_table_length(self):
        table = simple_table()
        table.bulk_load([(1, 1)] * 5)
        assert table.table_length == 5 * table.tuple_length

    def test_num_pages_grows(self):
        small = make_test_table(rows=10)
        large = make_test_table(rows=5000)
        assert large.num_pages > small.num_pages

    def test_column_values(self):
        table = simple_table()
        table.bulk_load([(1, 10), (2, 20)])
        assert table.column_values("b") == [10, 20]


class TestClustering:
    def test_cluster_on_sorts_rows(self):
        table = simple_table()
        table.bulk_load([(3, 0), (1, 1), (2, 2)])
        table.cluster_on("a")
        assert [r[0] for r in table.rows()] == [1, 2, 3]
        assert table.clustered_on == "a"

    def test_cluster_on_missing_column(self):
        table = simple_table()
        with pytest.raises(SchemaError):
            table.cluster_on("zz")


class TestStatistics:
    def test_analyze_computes_min_max_distinct(self):
        table = simple_table()
        table.bulk_load([(5, 1), (3, 1), (9, 2)])
        stats = table.analyze()
        assert stats.cardinality == 3
        assert stats.column("a").minimum == 3
        assert stats.column("a").maximum == 9
        assert stats.column("b").distinct_count == 2

    def test_statistics_cached_and_invalidated(self):
        table = simple_table()
        table.bulk_load([(1, 1)])
        first = table.statistics
        assert table.statistics is first  # cached
        table.insert((2, 2))
        assert table.statistics is not first  # invalidated by insert
        assert table.statistics.cardinality == 2


class TestResultTable:
    def test_cardinality_and_length(self):
        ids = np.arange(2)
        result = ResultTable(("x", "y"), 12, [(np.array([1, 3]), ids), (np.array([2, 4]), ids)])
        assert result.cardinality == 2
        assert result.table_length == 24
        assert list(result) == [(1, 2), (3, 4)]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            ResultTable(("x", "x"), 8, [])
