"""Unit tests for local access-path selection rules."""

import pytest

from repro.engine.index import Index, IndexKind
from repro.engine.optimizer import (
    NONCLUSTERED_SELECTIVITY_LIMIT,
    choose_join_plan,
    choose_unary_plan,
)
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery, SelectQuery

from ..conftest import make_test_table
from .reference import naive_join


@pytest.fixture
def table():
    t = make_test_table(rows=1000, seed=20)
    t.analyze()
    return t


class TestUnaryRules:
    def test_no_predicate_means_seq_scan(self, table):
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        plan = choose_unary_plan(table, [index], SelectQuery("t"))
        assert plan.method == "seq_scan"

    def test_selective_range_uses_nonclustered_index(self, table):
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        query = SelectQuery("t", ("a",), Comparison("a", "<", 30))  # ~3%
        plan = choose_unary_plan(table, [index], query)
        assert plan.method == "nonclustered_index_scan"
        assert plan.index is index

    def test_wide_range_falls_back_to_seq_scan(self, table):
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        query = SelectQuery("t", ("a",), Comparison("a", "<", 900))  # ~90%
        plan = choose_unary_plan(table, [index], query)
        assert plan.method == "seq_scan"

    def test_clustered_index_always_preferred_when_sargable(self, table):
        table.cluster_on("a")
        ci = Index("ci", table, "a", IndexKind.CLUSTERED)
        query = SelectQuery("t", ("a",), Comparison("a", "<", 900))
        plan = choose_unary_plan(table, [ci], query)
        assert plan.method == "clustered_index_scan"

    def test_predicate_on_unindexed_column_seq_scans(self, table):
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        query = SelectQuery("t", ("a",), Comparison("b", "<", 5))
        plan = choose_unary_plan(table, [index], query)
        assert plan.method == "seq_scan"

    def test_selectivity_limit_is_boundary(self, table):
        # Just inside the limit -> index; far outside -> scan.
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        cut_in = int(1000 * NONCLUSTERED_SELECTIVITY_LIMIT * 0.5)
        cut_out = int(1000 * NONCLUSTERED_SELECTIVITY_LIMIT * 3)
        assert (
            choose_unary_plan(
                table, [index], SelectQuery("t", ("a",), Comparison("a", "<", cut_in))
            ).method
            == "nonclustered_index_scan"
        )
        assert (
            choose_unary_plan(
                table, [index], SelectQuery("t", ("a",), Comparison("a", "<", cut_out))
            ).method
            == "seq_scan"
        )

    def test_plan_executes(self, table):
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        query = SelectQuery("t", ("a",), Comparison("a", "<", 30))
        plan = choose_unary_plan(table, [index], query)
        execution = plan.execute(table, query)
        assert all(row[0] < 30 for row in execution.result.rows)


class TestJoinRules:
    @pytest.fixture
    def left(self):
        t = make_test_table("l", rows=900, seed=21)
        t.analyze()
        return t

    @pytest.fixture
    def right(self):
        t = make_test_table("r", rows=800, seed=22)
        t.analyze()
        return t

    def test_no_indexes_means_hash_join(self, left, right):
        query = JoinQuery("l", "r", "b", "b")
        plan = choose_join_plan(left, right, [], [], query)
        assert plan.method == "hash_join"

    def test_selective_outer_with_inner_index_uses_inlj(self, left, right):
        index = Index("ri", right, "b", IndexKind.NONCLUSTERED)
        query = JoinQuery(
            "l", "r", "b", "b", left_predicate=Comparison("a", "<", 20)
        )
        plan = choose_join_plan(left, right, [], [index], query)
        assert plan.method == "index_nested_loop_join"
        assert not plan.swapped

    def test_index_on_left_swaps_operands(self, left, right):
        index = Index("li", left, "b", IndexKind.NONCLUSTERED)
        query = JoinQuery(
            "l", "r", "b", "b", right_predicate=Comparison("a", "<", 20)
        )
        plan = choose_join_plan(left, right, [index], [], query)
        assert plan.method == "index_nested_loop_join"
        assert plan.swapped

    def test_unselective_outer_prefers_hash(self, left, right):
        index = Index("ri", right, "b", IndexKind.NONCLUSTERED)
        query = JoinQuery("l", "r", "b", "b")  # whole outer
        plan = choose_join_plan(left, right, [], [index], query)
        assert plan.method == "hash_join"

    def test_both_clustered_means_sort_merge(self, left, right):
        left.cluster_on("b")
        right.cluster_on("b")
        li = Index("li", left, "b", IndexKind.CLUSTERED)
        ri = Index("ri", right, "b", IndexKind.CLUSTERED)
        query = JoinQuery("l", "r", "b", "b")
        plan = choose_join_plan(left, right, [li], [ri], query)
        assert plan.method == "sort_merge_join"

    def test_swapped_plan_result_matches_naive(self, left, right):
        index = Index("li", left, "b", IndexKind.NONCLUSTERED)
        query = JoinQuery(
            "l",
            "r",
            "b",
            "b",
            ("l.a", "r.c"),
            right_predicate=Comparison("a", "<", 20),
        )
        plan = choose_join_plan(left, right, [index], [], query)
        assert plan.swapped
        execution = plan.execute(left, right, query)
        assert sorted(execution.result.rows) == sorted(naive_join(left, right, query).result.rows)
        # Output column order must be the original, un-swapped order.
        assert execution.result.column_names == ("l.a", "r.c")
