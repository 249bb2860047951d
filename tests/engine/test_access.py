"""Unit tests for unary access methods: correctness vs a naive reference
plus cost-accounting sanity."""

import pytest

from repro.engine.access import (
    clustered_index_scan,
    nonclustered_index_scan,
    seq_scan,
)
from repro.engine.errors import ExecutionError
from repro.engine.index import Index, IndexKind
from repro.engine.predicate import And, Comparison
from repro.engine.query import SelectQuery

from ..conftest import make_test_table
from .reference import filter_rows


def reference_result(table, query):
    """Naive projection of the naive filter."""
    out_cols = query.output_columns(table.schema)
    positions = [table.schema.position(c) for c in out_cols]
    return [
        tuple(r[p] for p in positions)
        for r in filter_rows(table, query.predicate)
    ]


@pytest.fixture
def table():
    return make_test_table(rows=800, seed=4)


QUERY = SelectQuery("t", ("a", "c"), And(Comparison("a", ">=", 200), Comparison("a", "<", 600)))


class TestSeqScan:
    def test_result_matches_reference(self, table):
        execution = seq_scan(table, QUERY)
        assert sorted(execution.result.rows) == sorted(reference_result(table, QUERY))

    def test_reads_every_page_and_tuple(self, table):
        execution = seq_scan(table, QUERY)
        assert execution.metrics.sequential_page_reads == table.num_pages
        assert execution.metrics.tuples_read == table.cardinality
        assert execution.metrics.tuples_evaluated == table.cardinality

    def test_intermediate_equals_operand(self, table):
        execution = seq_scan(table, QUERY)
        assert execution.info.intermediate_cardinality == table.cardinality
        assert execution.info.method == "seq_scan"

    def test_output_count_matches(self, table):
        execution = seq_scan(table, QUERY)
        assert execution.metrics.tuples_output == execution.result.cardinality

    def test_result_tuple_length(self, table):
        execution = seq_scan(table, QUERY)
        assert execution.result.tuple_length == table.schema.projected_tuple_length(
            ("a", "c")
        )


class TestClusteredIndexScan:
    @pytest.fixture
    def clustered(self, table):
        table.cluster_on("a")
        return Index("ci", table, "a", IndexKind.CLUSTERED)

    def test_result_matches_seq_scan(self, table, clustered):
        execution = clustered_index_scan(table, clustered, QUERY)
        assert sorted(execution.result.rows) == sorted(reference_result(table, QUERY))

    def test_reads_fraction_of_pages(self, table, clustered):
        execution = clustered_index_scan(table, clustered, QUERY)
        assert 0 < execution.metrics.sequential_page_reads <= table.num_pages
        assert execution.metrics.random_page_reads == clustered.height

    def test_intermediate_is_range_count(self, table, clustered):
        execution = clustered_index_scan(table, clustered, QUERY)
        expected = len([r for r in table.rows() if 200 <= r[0] < 600])
        assert execution.info.intermediate_cardinality == expected

    def test_requires_clustered_index(self, table):
        nc = Index("nc", table, "a", IndexKind.NONCLUSTERED)
        with pytest.raises(ExecutionError):
            clustered_index_scan(table, nc, QUERY)

    def test_unsargable_predicate_falls_back_to_full_range(self, table, clustered):
        query = SelectQuery("t", ("a",), Comparison("b", "<", 50))
        execution = clustered_index_scan(table, clustered, query)
        assert execution.info.intermediate_cardinality == table.cardinality
        assert sorted(execution.result.rows) == sorted(reference_result(table, query))


class TestNonClusteredIndexScan:
    @pytest.fixture
    def index(self, table):
        return Index("nc", table, "a", IndexKind.NONCLUSTERED)

    def test_result_matches_reference(self, table, index):
        execution = nonclustered_index_scan(table, index, QUERY)
        assert sorted(execution.result.rows) == sorted(reference_result(table, QUERY))

    def test_charges_random_reads_per_tuple(self, table, index):
        execution = nonclustered_index_scan(table, index, QUERY)
        k = execution.info.intermediate_cardinality
        assert execution.metrics.random_page_reads >= index.height
        assert execution.metrics.random_page_reads <= index.height + k

    def test_requires_bounded_range(self, table, index):
        query = SelectQuery("t", ("a",), Comparison("b", "<", 50))
        with pytest.raises(ExecutionError):
            nonclustered_index_scan(table, index, query)

    def test_residual_applied(self, table, index):
        query = SelectQuery(
            "t", ("a", "b"), And(Comparison("a", "<", 300), Comparison("b", "<", 10))
        )
        execution = nonclustered_index_scan(table, index, query)
        assert all(a < 300 and b < 10 for a, b in execution.result.rows)
        assert sorted(execution.result.rows) == sorted(reference_result(table, query))

    def test_selective_scan_cheaper_than_seq(self, table, index):
        narrow = SelectQuery("t", ("a",), Comparison("a", "<", 20))
        nc = nonclustered_index_scan(table, index, narrow)
        ss = seq_scan(table, narrow)
        assert nc.metrics.tuples_read < ss.metrics.tuples_read

    def test_empty_range(self, table, index):
        query = SelectQuery("t", ("a",), Comparison("a", ">", 10**9))
        execution = nonclustered_index_scan(table, index, query)
        assert execution.result.cardinality == 0
        assert execution.metrics.random_page_reads == index.height
