"""Unit tests for join methods: every algorithm must agree with the naive
reference join, while reporting algorithm-specific work."""

import pytest

from repro.engine.errors import ExecutionError
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    hash_join,
    index_nested_loop_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery

from ..conftest import make_test_table
from .reference import naive_join


@pytest.fixture
def left():
    return make_test_table("l", rows=300, seed=10)


@pytest.fixture
def right():
    return make_test_table("r", rows=200, seed=11)


@pytest.fixture
def query():
    # Join on 'b' (range 0..99) so there are plenty of matches.
    return JoinQuery(
        "l",
        "r",
        "b",
        "b",
        ("l.a", "r.c"),
        Comparison("a", "<", 700),
        Comparison("c", ">", 2),
    )


ALL_METHODS = [nested_loop_join, sort_merge_join, hash_join]


class TestCorrectness:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matches_naive_join(self, method, left, right, query):
        expected = sorted(naive_join(left, right, query).result.rows)
        got = sorted(method(left, right, query).result.rows)
        assert got == expected

    def test_inlj_matches_naive_join(self, left, right, query):
        index = Index("ri", right, "b", IndexKind.NONCLUSTERED)
        expected = sorted(naive_join(left, right, query).result.rows)
        got = sorted(index_nested_loop_join(left, right, query, index).result.rows)
        assert got == expected

    def test_inlj_with_clustered_inner(self, left, right, query):
        right.cluster_on("b")
        index = Index("ri", right, "b", IndexKind.CLUSTERED)
        expected = sorted(naive_join(left, right, query).result.rows)
        got = sorted(index_nested_loop_join(left, right, query, index).result.rows)
        assert got == expected

    def test_empty_result_when_no_matches(self, left, right):
        query = JoinQuery("l", "r", "b", "b", left_predicate=Comparison("a", "<", -1))
        assert hash_join(left, right, query).result.cardinality == 0


class TestFiveWayAgreement:
    def test_all_five_methods_identical_result_sets(self, left, right, query):
        """Every join method — naive included — yields the same multiset."""
        right.cluster_on("b")
        index = Index("ri", right, "b", IndexKind.CLUSTERED)
        executions = {
            "naive_join": naive_join(left, right, query),
            "nested_loop_join": nested_loop_join(left, right, query),
            "sort_merge_join": sort_merge_join(left, right, query),
            "hash_join": hash_join(left, right, query),
            "index_nested_loop_join": index_nested_loop_join(
                left, right, query, index
            ),
        }
        reference = sorted(executions["naive_join"].result.rows)
        for name, execution in executions.items():
            assert sorted(execution.result.rows) == reference, name
            assert execution.method == name
            assert execution.result.column_names == ("l.a", "r.c")

    def test_naive_join_uses_shared_page_accounting(self, left, right, query):
        execution = naive_join(left, right, query)
        qualifying_left = len([r for r in left.rows() if r[0] < 700])
        expected_pages = left.num_pages + qualifying_left * right.num_pages
        assert execution.metrics.sequential_page_reads == expected_pages
        assert execution.metrics.logical_page_reads == expected_pages
        assert execution.metrics.tuples_output == execution.result.cardinality
        assert execution.left_info.intermediate_cardinality == qualifying_left

    def test_naive_join_rescans_hit_the_buffer_pool(self, left, right, query):
        from repro.engine.buffer import BufferPool

        pool = BufferPool(capacity_pages=512)
        execution = naive_join(left, right, query, pool)
        baseline = naive_join(left, right, query)
        # Rescans of the (small) inner relation are all buffer hits, so
        # physical I/O collapses to one sweep of each operand...
        assert (
            execution.metrics.sequential_page_reads
            == left.num_pages + right.num_pages
        )
        assert execution.metrics.buffer_hits > 0
        # ...while the logical ledger and the rows are unchanged.
        assert (
            execution.metrics.logical_page_reads
            == baseline.metrics.logical_page_reads
        )
        assert execution.result.rows == baseline.result.rows


class TestWorkAccounting:
    def test_all_methods_scan_operands(self, left, right, query):
        for method in ALL_METHODS:
            metrics = method(left, right, query).metrics
            assert metrics.sequential_page_reads >= left.num_pages + right.num_pages
            assert metrics.tuples_read >= left.cardinality + right.cardinality

    def test_nlj_charges_pairwise_evaluations(self, left, right, query):
        nlj = nested_loop_join(left, right, query)
        ni1 = nlj.left_info.intermediate_cardinality
        ni2 = nlj.right_info.intermediate_cardinality
        assert nlj.metrics.tuples_evaluated >= ni1 * ni2

    def test_smj_charges_sort_comparisons(self, left, right, query):
        smj = sort_merge_join(left, right, query)
        assert smj.metrics.sort_comparisons > 0
        assert hash_join(left, right, query).metrics.sort_comparisons == 0

    def test_hj_charges_hash_operations(self, left, right, query):
        hj = hash_join(left, right, query)
        ni1 = hj.left_info.intermediate_cardinality
        ni2 = hj.right_info.intermediate_cardinality
        assert hj.metrics.hash_operations == ni1 + ni2

    def test_inlj_skips_inner_scan(self, left, right, query):
        index = Index("ri", right, "b", IndexKind.NONCLUSTERED)
        inlj = index_nested_loop_join(left, right, query, index)
        # Only the outer is scanned sequentially.
        assert inlj.metrics.sequential_page_reads == left.num_pages
        assert inlj.metrics.random_page_reads > 0

    def test_intermediate_cardinalities_reported(self, left, right, query):
        hj = hash_join(left, right, query)
        expected_left = len([r for r in left.rows() if r[0] < 700])
        expected_right = len([r for r in right.rows() if r[2] > 2])
        assert hj.left_info.intermediate_cardinality == expected_left
        assert hj.right_info.intermediate_cardinality == expected_right

    def test_hash_cheaper_than_nlj_in_evaluations(self, left, right, query):
        nlj = nested_loop_join(left, right, query).metrics
        hj = hash_join(left, right, query).metrics
        assert hj.tuples_evaluated < nlj.tuples_evaluated


class TestINLJValidation:
    def test_wrong_table_rejected(self, left, right, query):
        index = Index("li", left, "b", IndexKind.NONCLUSTERED)
        with pytest.raises(ExecutionError):
            index_nested_loop_join(left, right, query, index)

    def test_wrong_column_rejected(self, left, right, query):
        index = Index("ri", right, "a", IndexKind.NONCLUSTERED)
        with pytest.raises(ExecutionError):
            index_nested_loop_join(left, right, query, index)


class TestProjection:
    def test_output_column_order_preserved(self, left, right):
        query = JoinQuery("l", "r", "b", "b", ("r.c", "l.a"))
        result = hash_join(left, right, query).result
        assert result.column_names == ("r.c", "l.a")

    def test_default_projection_all_columns(self, left, right):
        query = JoinQuery("l", "r", "b", "b")
        result = hash_join(left, right, query).result
        assert len(result.column_names) == len(left.schema) + len(right.schema)
