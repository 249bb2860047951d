"""Property tests: the columnar paths return what row-at-a-time returns.

Every operator has one implementation that works on selection vectors
over column arrays; which *kernel* decides a predicate or a key match —
numpy over typed arrays, or Python over the values — depends on the data
alone (object-dtype columns, integers float64 cannot hold).  These
tests run each case as the data picks and again under
:func:`~tests.engine.kernels.row_at_a_time`, which sends all data down
the fallback, and require the same rows — value **and Python type**, in
the same order — the same metrics and the same access facts, for all
three scans and all four join methods, on tables loaded by row and on
tables loaded by column.

The strategies aim at the places where numpy and Python disagree:
strings with a trailing NUL or whitespace, ``-0.0`` / ``inf``, integers at
and beyond ±2**53 and ±2**63, INT keys joined to FLOAT keys.  No column
holds NaN and no comparison takes it (DESIGN.md §7).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import joins
from repro.engine.access import (
    clustered_index_scan,
    nonclustered_index_scan,
    seq_scan,
)
from repro.engine.errors import TypeError_
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    _match_pairs,
    hash_join,
    index_nested_loop_join,
    naive_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.engine.optimizer import choose_join_plan
from repro.engine.predicate import And, Comparison, Not, Or, TruePredicate
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import DataType

from .kernels import row_at_a_time

# -- values ------------------------------------------------------------------

EDGE_INTS = [
    2**53 - 1, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, -(2**80),
]
EDGE_FLOATS = [
    -0.0, 0.5, math.inf, -math.inf,
    2.0**53, 2.0**53 + 2, -(2.0**53), 2.0**63, 1e300,
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
#: Every value fits its typed array, so these load by column.
numeric_rows = st.lists(st.tuples(small_ints, keys, floats), max_size=30)


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


def both_modes(run):
    """*run()* on the row-at-a-time kernels, then on the ones the data picks."""
    with row_at_a_time():
        scalar = run()
    return scalar, run()


def comparisons(columns, constants):
    return st.builds(
        Comparison,
        column=st.sampled_from(columns),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        value=constants,
    )


def predicates(with_str):
    leaves = comparisons(["a", "b", "f"], ints | floats)
    if with_str:
        leaves = leaves | comparisons(["s"], strings)
    return st.recursive(
        leaves | st.just(TruePredicate()),
        lambda sub: st.one_of(
            st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)
        ),
        max_leaves=4,
    )


#: (columns, rows, predicate over them, load by column?) — numeric
#: tables go both ways.
scan_cases = st.one_of(
    st.tuples(st.just(COLUMNS), rows_with_str, predicates(True), st.just(False)),
    st.tuples(st.just(NUMERIC), numeric_rows, predicates(False), st.booleans()),
)


# -- predicates --------------------------------------------------------------


class TestPredicateBatches:
    @settings(max_examples=200, deadline=None)
    @given(case=scan_cases)
    def test_batch_mask_equals_row_at_a_time(self, case):
        columns, rows, pred, by_column = case
        table = make_table("t", rows, by_column, columns=columns)
        mask = pred.evaluate_batch(table)
        if mask is None:  # the data sent this predicate to the scalar path
            return
        assert mask.dtype == np.bool_
        assert mask.tolist() == [pred.evaluate(r, table.schema) for r in table]

    def test_true_predicate_and_empty_table(self):
        table = make_table("t", [])
        assert TruePredicate().evaluate_batch(table).tolist() == []
        assert Comparison("a", "<", 3).evaluate_batch(table).tolist() == []

    def test_incompatible_types_fall_back_to_scalar(self):
        table = make_table("t", [(1, 2, 0.5, "a\x00")])
        # String literal against an int column: no batch path, and the
        # scalar path is the one that decides the semantics.
        assert Comparison("a", "=", "x").evaluate_batch(table) is None
        # Fixed-width unicode cannot hold a trailing NUL: neither as a
        # column value (object array) nor as the constant.
        assert table.column_array("s").dtype == object
        assert Comparison("s", "=", "a").evaluate_batch(table) is None
        plain = make_table("u", [(1, 2, 0.5, "a")])
        assert Comparison("s", "=", "a").evaluate_batch(plain) is not None
        assert Comparison("s", "=", "a\x00").evaluate_batch(plain) is None

    def test_huge_integers_fall_back_to_scalar(self):
        table = make_table("t", [(1, 2, 0.5), (3, 4, 2.0**53)])
        assert Comparison("a", "<", 2**80).evaluate_batch(table) is None
        assert Comparison("a", "<", 2**40).evaluate_batch(table) is not None
        # A FLOAT column against an int float64 cannot hold: Python says
        # 2.0**53 != 2**53 + 1, float64 arithmetic would say equal.
        assert Comparison("f", "=", 2**53 + 1).evaluate_batch(table) is None
        # An INT column holding such a value is an object array.
        wide = make_table("w", [(2**63, 0, 0.0)])
        assert wide.column_array("a").dtype == object
        assert Comparison("a", "<", 5).evaluate_batch(wide) is None


# -- scans -------------------------------------------------------------------


def assert_same_execution(scalar, vector):
    assert typed(vector.result.rows) == typed(scalar.result.rows)
    assert vector.result.cardinality == scalar.result.cardinality
    assert vector.metrics == scalar.metrics


orderings = st.lists(
    st.tuples(st.sampled_from(["a", "b", "f"]), st.booleans()), max_size=2
).map(tuple)
limits = st.none() | st.integers(0, 10)


class TestScanEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(case=scan_cases, order_by=orderings, limit=limits)
    def test_seq_scan_rows_identical(self, case, order_by, limit):
        columns, rows, pred, by_column = case
        query = SelectQuery("t", (), pred, order_by, limit)
        scalar, vector = both_modes(
            lambda: seq_scan(make_table("t", rows, by_column, columns=columns), query)
        )
        assert_same_execution(scalar, vector)
        assert vector.info == scalar.info

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

        def run():
            table = make_table("t", rows, by_column, clustered, columns)
            if clustered:
                index = Index("ix", table, "b", IndexKind.CLUSTERED)
                return clustered_index_scan(table, index, query)
            index = Index("ix", table, "b", IndexKind.NONCLUSTERED)
            return nonclustered_index_scan(table, index, query)

        scalar, vector = both_modes(run)
        assert_same_execution(scalar, vector)
        assert vector.info == scalar.info


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
        predicates(True), predicates(True), st.just(False),
    ),
    st.tuples(
        st.just(NUMERIC), numeric_rows, numeric_rows, st.sampled_from(JOIN_COLUMNS[:5]),
        predicates(False), predicates(False), st.booleans(),
    ),
)


def join_case_runner(case, execute):
    """run() for one drawn join case; *execute* gets (left, right, query)."""
    columns, left_rows, right_rows, (lcol, rcol), lpred, rpred, by_column = case
    query = JoinQuery("l", "r", lcol, rcol, (), lpred, rpred)

    def run(by_column=by_column):
        left = make_table("l", left_rows, by_column, columns=columns)
        right = make_table("r", right_rows, by_column, columns=columns)
        return execute(left, right, query)

    return run


class TestJoinEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(left=key_columns, right=key_columns)
    def test_match_pairs_identical_order(self, left, right):
        (left_keys, left_type), (right_keys, right_type) = left, right
        # Left position major, right positions ascending: what a nested
        # loop over Python's ``==`` finds, in the order it finds it.
        expected = [
            (i, j)
            for i, lkey in enumerate(left_keys)
            for j, rkey in enumerate(right_keys)
            if lkey == rkey
        ]
        scalar, vector = both_modes(
            lambda: matched(
                key_array(left_keys, left_type), key_array(right_keys, right_type)
            )
        )
        assert scalar == expected
        assert vector == expected

    def test_match_pairs_edge_shapes(self):
        for left, right in [
            ([], []),
            ([1], []),
            ([], [1]),
            ([7], [7]),  # single row each
            ([3] * 5, [3] * 4),  # all duplicates
        ]:
            scalar, vector = both_modes(
                lambda: matched(
                    key_array(left, DataType.INT), key_array(right, DataType.INT)
                )
            )
            assert vector == scalar
            assert len(vector) == (len(left) * len(right) if left[:1] == right[:1] else 0)

    def test_string_keys_match(self):
        left = key_array(["x", "y", "x", "x\x00"], DataType.STR)
        right = key_array(["x", "z", "x\x00"], DataType.STR)
        scalar, vector = both_modes(lambda: matched(left, right))
        assert vector == scalar == [(0, 0), (2, 0), (3, 2)]

    def test_mixed_int_float_keys_beyond_2_53_do_not_match(self):
        left = key_array([2**53 + 1, 5], DataType.INT)
        right = key_array([2.0**53, 5.0], DataType.FLOAT)
        scalar, vector = both_modes(lambda: matched(left, right))
        assert vector == scalar == [(1, 1)]

    def test_nan_keys_match_nothing(self):
        """A NaN key never reaches a join: no column can hold one."""
        with pytest.raises(TypeError_, match="NaN"):
            key_array([math.nan, 1.0], DataType.FLOAT)
        keys_ = key_array([1.0, -0.0], DataType.FLOAT)
        scalar, vector = both_modes(lambda: matched(keys_, key_array([0.0], DataType.FLOAT)))
        assert vector == scalar == [(1, 0)]

    @settings(max_examples=150, deadline=None)
    @given(case=join_cases, method=st.sampled_from(["hash", "merge", "nested", "index"]))
    def test_join_methods_rows_identical(self, case, method):
        def execute(left, right, query):
            if method == "hash":
                return hash_join(left, right, query)
            if method == "merge":
                return sort_merge_join(left, right, query)
            if method == "nested":
                return nested_loop_join(left, right, query)
            inner = Index("ix", right, query.right_column, IndexKind.NONCLUSTERED)
            return index_nested_loop_join(left, right, query, inner)

        run = join_case_runner(case, execute)
        scalar, vector = both_modes(run)
        assert_same_execution(scalar, vector)
        assert vector.left_info == scalar.left_info
        assert vector.right_info == scalar.right_info
        if method != "index":
            # The three matcher-based methods return the reference
            # join's rows in the reference join's order.
            reference = join_case_runner(case, naive_join)
            assert typed(vector.result.rows) == typed(reference(False).result.rows)

    @settings(max_examples=60, deadline=None)
    @given(case=join_cases)
    def test_planned_join_rows_identical(self, case):
        def execute(left, right, query):
            plan = choose_join_plan(left, right, [], [], query)
            return plan.execute(left, right, query)

        run = join_case_runner(case, execute)
        scalar, vector = both_modes(run)
        assert vector.method == scalar.method
        assert_same_execution(scalar, vector)

    @settings(max_examples=40, deadline=None)
    @given(case=join_cases)
    def test_naive_join_rows_identical(self, case):
        run = join_case_runner(case, naive_join)
        scalar, vector = both_modes(run)
        assert_same_execution(scalar, vector)


class TestColumnBornTables:
    @settings(max_examples=60, deadline=None)
    @given(rows=numeric_rows)
    def test_loading_by_column_keeps_rows_and_statistics(self, rows):
        by_row = make_table("t", rows)
        by_column = make_table("t", rows, by_column=True)
        if rows:
            assert by_column._rows is None  # the arrays were adopted
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
    def test_columns_numpy_cannot_hold_are_loaded_by_row(self, rows):
        by_row = make_table("t", rows, columns=COLUMNS)
        by_column = make_table("t", rows, by_column=True, columns=COLUMNS)
        assert by_column._rows is not None  # STR column: validated row by row
        assert typed(by_column.rows()) == typed(by_row.rows())


class TestRowAtATime:
    def test_both_seams_fall_back_inside_and_recover_outside(self):
        table = make_table("t", [(1, 2, 0.5)])
        comparison = Comparison("a", "<", 3)
        keys_ = key_array([1, 2], DataType.INT)
        with row_at_a_time():
            assert comparison.evaluate_batch(table) is None
            assert not joins._numpy_orders_like_python(keys_, keys_)
        assert comparison.evaluate_batch(table).tolist() == [True]
        assert joins._numpy_orders_like_python(keys_, keys_)
