"""Unit tests for global queries and decomposition."""

import pytest

from repro.engine.errors import QueryError
from repro.engine.predicate import Comparison
from repro.mdbs.gquery import GlobalJoinQuery, decompose

LEFT_COLUMNS = ("a", "b", "c")
RIGHT_COLUMNS = ("x", "y", "z")


def make_query(**kwargs):
    defaults = dict(
        left_site="s1",
        left_table="t1",
        right_site="s2",
        right_table="t2",
        left_join_column="b",
        right_join_column="y",
    )
    defaults.update(kwargs)
    return GlobalJoinQuery(**defaults)


class TestGlobalJoinQuery:
    def test_same_table_same_site_rejected(self):
        with pytest.raises(QueryError):
            make_query(right_site="s1", right_table="t1")

    def test_same_table_name_different_sites_allowed(self):
        query = make_query(right_table="t1")
        assert query.right_table == "t1"

    def test_same_table_name_with_explicit_columns_rejected(self):
        """``t1.a`` cannot say which of two operands named t1 it means."""
        with pytest.raises(QueryError, match="both operands are named 't1'"):
            make_query(right_table="t1", columns=("t1.a",))

    def test_unqualified_output_column_rejected(self):
        with pytest.raises(QueryError):
            make_query(columns=("a",))

    def test_foreign_table_output_column_rejected(self):
        with pytest.raises(QueryError):
            make_query(columns=("t9.a",))

    def test_requested_columns_split_by_side(self):
        query = make_query(columns=("t1.a", "t2.x", "t1.c"))
        assert query.requested_columns("left") == ("a", "c")
        assert query.requested_columns("right") == ("x",)

    def test_str_mentions_sites(self):
        text = str(make_query())
        assert "s1:t1" in text and "s2:t2" in text


class TestDecompose:
    def test_projection_plus_join_column(self):
        query = make_query(columns=("t1.a", "t2.x"))
        components = decompose(query, LEFT_COLUMNS, RIGHT_COLUMNS)
        assert components.left.columns == ("a", "b")  # join column appended
        assert components.right.columns == ("x", "y")
        assert components.left.columns[components.left_join_position] == "b"
        assert components.right.columns[components.right_join_position] == "y"

    def test_join_column_already_requested_not_duplicated(self):
        query = make_query(columns=("t1.b", "t2.y"))
        components = decompose(query, LEFT_COLUMNS, RIGHT_COLUMNS)
        assert components.left.columns == ("b",)
        assert components.left_join_position == 0

    def test_star_ships_everything(self):
        query = make_query()
        components = decompose(query, LEFT_COLUMNS, RIGHT_COLUMNS)
        assert components.left.columns == LEFT_COLUMNS
        assert components.right.columns == RIGHT_COLUMNS

    def test_predicates_attached_to_components(self):
        query = make_query(
            left_predicate=Comparison("a", "<", 5),
            right_predicate=Comparison("z", ">", 1),
        )
        components = decompose(query, LEFT_COLUMNS, RIGHT_COLUMNS)
        assert components.left.predicate == Comparison("a", "<", 5)
        assert components.right.predicate == Comparison("z", ">", 1)

    def test_component_tables_match(self):
        components = decompose(make_query(), LEFT_COLUMNS, RIGHT_COLUMNS)
        assert components.left.table == "t1"
        assert components.right.table == "t2"
