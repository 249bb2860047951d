"""Property tests: the engine's one kernel returns what Python returns.

Every operator works on selection vectors over column arrays, and numpy
decides every predicate and every key match.  These tests run each case
through the engine and through the Python references in
:mod:`tests.engine.reference` (predicates evaluated by structure, a
tuple-at-a-time join) and require the same rows — value **and Python
type**, in the same order — for all three scans and all four join
methods, on tables loaded by row and on tables loaded by column.

The strategies aim at the places where numpy and Python could disagree:
strings with a trailing NUL or whitespace, ``-0.0`` / ``inf``, integers
at ±2**53 and at the int64 ends, constants beyond int64 and beyond
float64's integers, INT keys joined to FLOAT keys.  No column holds NaN
or an integer beyond int64, and no comparison takes NaN (DESIGN.md §7).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.access import (
    clustered_index_scan,
    nonclustered_index_scan,
    seq_scan,
)
from repro.engine.errors import QueryError, TypeError_
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    _match_pairs,
    hash_join,
    index_nested_loop_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.engine.optimizer import choose_join_plan
from repro.engine.predicate import And, Comparison, Not, Or, TruePredicate
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import DataType

from .reference import filter_rows, holds, naive_join

# -- values ------------------------------------------------------------------

#: Integers a column can hold: float64's exact-integer edge and int64's ends.
EDGE_INTS = [
    2**53 - 1, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1, 2**63 - 1, -(2**63),
]
#: Integer constants no INT column holds.
BEYOND_INT64 = [2**63, -(2**63) - 1, 2**64, -(2**80)]
EDGE_FLOATS = [
    -0.0, 0.5, 2.5, -1.5, math.inf, -math.inf,
    2.0**53, 2.0**53 + 2, -(2.0**53), 2.0**63, -(2.0**63), 1e300,
]
EDGE_STRINGS = ["", "a", "a\x00", "a\x00\x00", "a ", " a", "a\x00b", "ab", "b", "é"]

small_ints = st.integers(-4, 4)
ints = small_ints | st.sampled_from(EDGE_INTS)
floats = small_ints.map(float) | st.sampled_from(EDGE_FLOATS)
strings = st.sampled_from(EDGE_STRINGS)
keys = st.integers(0, 5)

#: a INT (edge values), b INT (a small join/index key), f FLOAT, s STR.
COLUMNS = [
    Column("a", DataType.INT),
    Column("b", DataType.INT),
    Column("f", DataType.FLOAT),
    Column("s", DataType.STR, 8),
]
NUMERIC = COLUMNS[:3]

rows_with_str = st.lists(st.tuples(ints, keys, floats, strings), max_size=30)
numeric_rows = st.lists(st.tuples(ints, keys, floats), max_size=30)


def typed(rows):
    """Rows as comparable (type, repr) pairs: ``-0.0`` differs from ``0.0``
    and ``1`` from ``1.0``."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def make_table(name, rows, by_column=False, clustered=False, columns=None):
    """A table of *rows*; *by_column* loads it from a query result."""
    if columns is None:
        columns = COLUMNS if rows and len(rows[0]) == 4 else NUMERIC
    table = Table(TableSchema(name, columns))
    table.bulk_load(rows)
    if clustered:
        table.cluster_on("b")
    if by_column:
        shipped = seq_scan(table, SelectQuery(name)).result
        table = Table(TableSchema(name, columns))
        table.bulk_load(shipped)
        table.clustered_on = "b" if clustered else None
    table.analyze()
    return table


def comparisons(columns, constants):
    return st.builds(
        Comparison,
        column=st.sampled_from(columns),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        value=constants,
    )


def predicates(with_str):
    leaves = comparisons(["a", "b", "f"], ints | floats | st.sampled_from(BEYOND_INT64))
    if with_str:
        leaves = leaves | comparisons(["s"], strings)
    return st.recursive(
        leaves | st.just(TruePredicate()),
        lambda sub: st.one_of(
            st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)
        ),
        max_leaves=4,
    )


#: (columns, rows, predicate over them, load by column?).
scan_cases = st.one_of(
    st.tuples(st.just(COLUMNS), rows_with_str, predicates(True), st.booleans()),
    st.tuples(st.just(NUMERIC), numeric_rows, predicates(False), st.booleans()),
)


# -- ingest and validation -------------------------------------------------------


class TestIngestBounds:
    @pytest.mark.parametrize("value", BEYOND_INT64)
    def test_an_int_beyond_int64_is_rejected_and_nothing_loads(self, value):
        table = make_table("t", [(1, 2, 0.5)])
        with pytest.raises(TypeError_, match="int64"):
            table.bulk_load([(3, 4, 1.5), (value, 0, 0.0)])
        with pytest.raises(TypeError_, match="int64"):
            table.insert((value, 0, 0.0))
        assert table.rows() == [(1, 2, 0.5)]
        assert table.version == 2  # the load and the analyze, nothing since

    def test_an_int_beyond_float64_is_rejected_by_a_float_column(self):
        table = make_table("t", [(1, 2, 0.5)])
        with pytest.raises(TypeError_, match="float range"):
            table.insert((3, 4, 10**400))
        assert table.rows() == [(1, 2, 0.5)]

    def test_the_int64_ends_load_and_read_back(self):
        table = make_table("t", [(2**63 - 1, 0, 0.0), (-(2**63), 1, -0.0)])
        assert table.column_array("a").dtype == np.int64
        assert typed(table.rows()) == typed([(2**63 - 1, 0, 0.0), (-(2**63), 1, -0.0)])

    def test_strings_are_python_objects(self):
        table = make_table("t", [(1, 2, 0.5, "a\x00"), (1, 2, 0.5, "a")])
        assert table.column_array("s").dtype == object
        assert table.column_values("s") == ["a\x00", "a"]


class TestConstantsAreTyped:
    @pytest.mark.parametrize(
        "column, value",
        [("a", "1"), ("f", "x"), ("s", 1), ("s", 0.5), ("a", True), ("f", False), ("s", True)],
    )
    def test_a_mistyped_constant_raises_query_error(self, column, value):
        table = make_table("t", [(1, 2, 0.5, "a")])
        predicate = Not(And(Comparison("b", "<", 3), Comparison(column, "=", value)))
        with pytest.raises(QueryError, match="cannot compare"):
            seq_scan(table, SelectQuery("t", (), predicate))

    def test_numbers_of_either_kind_compare_with_numeric_columns(self):
        table = make_table("t", [(1, 2, 0.5)])
        for column in ("a", "f"):
            for value in (1, 1.0, 2**70, -math.inf):
                SelectQuery("t", (), Comparison(column, "<", value)).validate(table.schema)


# -- predicates --------------------------------------------------------------


class TestPredicateBatches:
    @settings(max_examples=300, deadline=None)
    @given(case=scan_cases)
    def test_batch_mask_equals_row_at_a_time(self, case):
        columns, rows, pred, by_column = case
        table = make_table("t", rows, by_column, columns=columns)
        pred.validate(table.schema)
        mask = pred.evaluate_batch(table)
        assert mask.dtype == np.bool_
        assert mask.tolist() == [holds(pred, row, table.schema) for row in table.rows()]

    def test_true_predicate_and_empty_table(self):
        table = make_table("t", [])
        assert TruePredicate().evaluate_batch(table).tolist() == []
        assert Comparison("a", "<", 3).evaluate_batch(table).tolist() == []
        strings_ = make_table("u", [], columns=COLUMNS)
        assert Comparison("s", "=", "a").evaluate_batch(strings_).tolist() == []

    def test_other_kind_constants_split_exactly(self):
        table = make_table("t", [(2**53 + 1, 0, 2.0**53), (5, 1, 5.0), (2**63 - 1, 2, 2.0**63)])

        def mask(column, op, value):
            return Comparison(column, op, value).evaluate_batch(table).tolist()

        # float64 rounds 2**53 + 1 to 2.0**53; Python compares exactly.
        assert mask("f", "=", 2**53 + 1) == [False, False, False]
        assert mask("f", "<", 2**53 + 1) == [True, True, False]
        assert mask("a", "=", 2.0**53) == [False, False, False]
        assert mask("a", ">", 2.0**53) == [True, False, True]
        assert mask("a", "<", 2.0**63) == [True, True, True]
        assert mask("a", "<=", 5.5) == [False, True, False]
        assert mask("a", "!=", 5.0) == [True, False, True]
        # Integers beyond int64 and beyond float64's range.
        assert mask("a", "<", 2**63) == [True, True, True]
        assert mask("a", ">=", -(2**80)) == [True, True, True]
        assert mask("f", ">", 10**400) == [False, False, False]
        assert mask("f", "=", 2**63) == [False, False, True]


# -- scans -------------------------------------------------------------------


def reference_select(table, query, key=None):
    """The query's rows by the Python reference: filter in physical order,
    sort stably (by *key*, then by each ORDER BY term), limit, project."""
    rows = filter_rows(table, query.predicate)
    terms = ([(key, True)] if key else []) + list(query.order_by)
    for column, ascending in reversed(terms):
        pos = table.schema.position(column)
        rows.sort(key=lambda row: row[pos], reverse=not ascending)
    if query.limit is not None:
        rows = rows[: query.limit]
    positions = [table.schema.position(c) for c in query.output_columns(table.schema)]
    return [tuple(row[p] for p in positions) for row in rows]


orderings = st.lists(
    st.tuples(st.sampled_from(["a", "b", "f"]), st.booleans()), max_size=2
).map(tuple)
limits = st.none() | st.integers(0, 10)


class TestScanEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(case=scan_cases, order_by=orderings, limit=limits)
    def test_seq_scan_rows_identical(self, case, order_by, limit):
        columns, rows, pred, by_column = case
        table = make_table("t", rows, by_column, columns=columns)
        query = SelectQuery("t", (), pred, order_by, limit)
        execution = seq_scan(table, query)
        assert typed(execution.result.rows) == typed(reference_select(table, query))
        assert execution.metrics.tuples_output == execution.result.cardinality

    @settings(max_examples=150, deadline=None)
    @given(
        case=scan_cases,
        clustered=st.booleans(),
        low=keys,
        span=st.integers(0, 3),
        limit=limits,
    )
    def test_index_scan_rows_identical(self, case, clustered, low, span, limit):
        columns, rows, residual, by_column = case
        sargable = And(Comparison("b", ">=", low), Comparison("b", "<", low + span))
        query = SelectQuery(
            "t", (columns[-1].name, "a"), And(sargable, residual), (), limit
        )
        table = make_table("t", rows, by_column, clustered, columns)
        if clustered:
            index = Index("ix", table, "b", IndexKind.CLUSTERED)
            execution = clustered_index_scan(table, index, query)
        else:
            index = Index("ix", table, "b", IndexKind.NONCLUSTERED)
            execution = nonclustered_index_scan(table, index, query)
        # An index scan returns its rows in key order, ties in row order.
        expected = reference_select(table, query, key="b")
        assert typed(execution.result.rows) == typed(expected)


# -- joins -------------------------------------------------------------------


def key_array(values, dtype):
    """The column array a table builds for these key values."""
    table = Table(TableSchema("k", [Column("k", dtype)]))
    table.bulk_load([(v,) for v in values])
    return table.column_array("k")


def matched(lkeys, rkeys):
    lpos, rpos = _match_pairs(lkeys, rkeys)
    assert lpos.dtype == rpos.dtype == np.intp
    return list(zip(lpos.tolist(), rpos.tolist()))


key_columns = st.one_of(
    st.tuples(st.lists(ints, max_size=25), st.just(DataType.INT)),
    st.tuples(st.lists(floats, max_size=25), st.just(DataType.FLOAT)),
    st.tuples(st.lists(strings, max_size=25), st.just(DataType.STR)),
    st.tuples(st.lists(keys, max_size=25), st.just(DataType.INT)),
)

#: (left column, right column) pairs, same-type and INT-to-FLOAT.
JOIN_COLUMNS = [("b", "b"), ("a", "a"), ("f", "f"), ("a", "f"), ("f", "b"), ("s", "s")]

join_cases = st.one_of(
    st.tuples(
        st.just(COLUMNS), rows_with_str, rows_with_str, st.sampled_from(JOIN_COLUMNS),
        predicates(True), predicates(True), st.booleans(),
    ),
    st.tuples(
        st.just(NUMERIC), numeric_rows, numeric_rows, st.sampled_from(JOIN_COLUMNS[:5]),
        predicates(False), predicates(False), st.booleans(),
    ),
)


#: Join cases whose INT and FLOAT keys a rounding of the float would match.
NON_INTEGRAL_JOIN = (
    NUMERIC, [(2, 0, 0.0), (-2, 1, 0.0)], [(0, 0, 2.5), (0, 1, -1.5)], ("a", "f"),
    TruePredicate(), TruePredicate(), False,
)
NON_INTEGRAL_JOIN_REVERSED = (
    NUMERIC, [(0, 0, 2.5), (0, 1, 0.5)], [(0, 2, 0.0), (0, 0, 1.0)], ("f", "b"),
    TruePredicate(), TruePredicate(), True,
)


def join_operands(case):
    """(left, right, query) of one drawn join case."""
    columns, left_rows, right_rows, (lcol, rcol), lpred, rpred, by_column = case
    query = JoinQuery("l", "r", lcol, rcol, (), lpred, rpred)
    left = make_table("l", left_rows, by_column, columns=columns)
    right = make_table("r", right_rows, by_column, columns=columns)
    return left, right, query


def bag(rows):
    return sorted(typed(rows), key=repr)


class TestJoinEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(left=key_columns, right=key_columns)
    # A non-integral float equals no int, whatever rounding would make it.
    @example(left=([2, 3], DataType.INT), right=([2.5, -1.5], DataType.FLOAT))
    @example(left=([2.5, 2.0], DataType.FLOAT), right=([2], DataType.INT))
    def test_match_pairs_identical_order(self, left, right):
        (left_keys, left_type), (right_keys, right_type) = left, right
        if DataType.STR in (left_type, right_type) and left_type is not right_type:
            return  # a join validates its key types first
        # Left position major, right positions ascending: what a nested
        # loop over Python's ``==`` finds, in the order it finds it.
        expected = [
            (i, j)
            for i, lkey in enumerate(left_keys)
            for j, rkey in enumerate(right_keys)
            if lkey == rkey
        ]
        got = matched(key_array(left_keys, left_type), key_array(right_keys, right_type))
        assert got == expected

    def test_match_pairs_edge_shapes(self):
        for left, right in [
            ([], []),
            ([1], []),
            ([], [1]),
            ([7], [7]),  # single row each
            ([3] * 5, [3] * 4),  # all duplicates
        ]:
            got = matched(key_array(left, DataType.INT), key_array(right, DataType.INT))
            assert len(got) == (len(left) * len(right) if left[:1] == right[:1] else 0)

    def test_string_keys_match(self):
        left = key_array(["x", "y", "x", "x\x00"], DataType.STR)
        right = key_array(["x", "z", "x\x00"], DataType.STR)
        assert matched(left, right) == [(0, 0), (2, 0), (3, 2)]

    def test_mixed_int_float_keys_beyond_2_53_do_not_match(self):
        left = key_array([2**53 + 1, 5], DataType.INT)
        right = key_array([2.0**53, 5.0], DataType.FLOAT)
        assert matched(left, right) == [(1, 1)]
        assert matched(right, left) == [(1, 1)]

    def test_only_integral_floats_within_int64_match_int_keys(self):
        ints_ = key_array([2, 0, 2**63 - 1, -(2**63)], DataType.INT)
        floats_ = key_array([2.5, 2.0, -0.0, 2.0**63, -(2.0**63), math.inf], DataType.FLOAT)
        assert matched(ints_, floats_) == [(0, 1), (1, 2), (3, 4)]
        assert matched(floats_, ints_) == [(1, 0), (2, 1), (4, 3)]

    def test_nan_keys_match_nothing(self):
        """A NaN key never reaches a join: no column can hold one."""
        with pytest.raises(TypeError_, match="NaN"):
            key_array([math.nan, 1.0], DataType.FLOAT)
        keys_ = key_array([1.0, -0.0], DataType.FLOAT)
        assert matched(keys_, key_array([0.0], DataType.FLOAT)) == [(1, 0)]

    @settings(max_examples=150, deadline=None)
    @given(case=join_cases, method=st.sampled_from(["hash", "merge", "nested", "index"]))
    # INT keys joined to non-integral FLOAT keys, from either side.
    @example(case=NON_INTEGRAL_JOIN, method="hash")
    @example(case=NON_INTEGRAL_JOIN_REVERSED, method="merge")
    def test_join_methods_rows_identical(self, case, method):
        left, right, query = join_operands(case)
        if method == "hash":
            execution = hash_join(left, right, query)
        elif method == "merge":
            execution = sort_merge_join(left, right, query)
        elif method == "nested":
            execution = nested_loop_join(left, right, query)
        else:
            inner = Index("ix", right, query.right_column, IndexKind.NONCLUSTERED)
            execution = index_nested_loop_join(left, right, query, inner)
        reference = naive_join(left, right, query)
        assert execution.left_info.intermediate_cardinality == (
            reference.left_info.intermediate_cardinality
        )
        if method == "index":
            assert bag(execution.result.rows) == bag(reference.result.rows)
        else:
            # The three matcher-based methods return the reference
            # join's rows in the reference join's order.
            assert typed(execution.result.rows) == typed(reference.result.rows)

    @settings(max_examples=60, deadline=None)
    @given(case=join_cases)
    def test_planned_join_rows_identical(self, case):
        left, right, query = join_operands(case)
        plan = choose_join_plan(left, right, [], [], query)
        execution = plan.execute(left, right, query)
        assert bag(execution.result.rows) == bag(naive_join(left, right, query).result.rows)


class TestColumnBornTables:
    @settings(max_examples=60, deadline=None)
    @given(rows=numeric_rows)
    def test_loading_by_column_keeps_rows_and_statistics(self, rows):
        by_row = make_table("t", rows)
        by_column = make_table("t", rows, by_column=True)
        assert by_column.cardinality == by_row.cardinality
        for name in by_row.schema.column_names:
            ours, theirs = (
                t.statistics.column(name) for t in (by_column, by_row)
            )
            assert typed([(ours.minimum, ours.maximum, ours.distinct_count)]) == typed(
                [(theirs.minimum, theirs.maximum, theirs.distinct_count)]
            )
        assert typed(by_column.rows()) == typed(by_row.rows())

    @settings(max_examples=40, deadline=None)
    @given(rows=rows_with_str)
    def test_str_results_load_the_same_rows(self, rows):
        by_row = make_table("t", rows, columns=COLUMNS)
        by_column = make_table("t", rows, by_column=True, columns=COLUMNS)
        assert typed(by_column.rows()) == typed(by_row.rows())
