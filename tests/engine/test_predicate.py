"""Unit tests for repro.engine.predicate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import QueryError
from repro.engine.predicate import (
    And,
    Comparison,
    KeyRange,
    Not,
    Or,
    TRUE,
    TruePredicate,
    conjoin,
    conjuncts,
    extract_key_range,
)
from repro.engine.schema import Column, ColumnStatistics, TableSchema, TableStatistics
from repro.engine.table import Table
from repro.engine.types import DataType

from .reference import holds

SCHEMA = TableSchema("t", [Column("a", DataType.INT), Column("b", DataType.INT)])


def evaluate(predicate, row):
    """*predicate* on a one-row table, through the engine's kernel."""
    table = Table(SCHEMA)
    table.bulk_load([row])
    return predicate.evaluate_batch(table).tolist() == [True]


def stats(minimum=0, maximum=100, distinct=50, cardinality=1000):
    ts = TableStatistics(cardinality=cardinality)
    ts.columns["a"] = ColumnStatistics(minimum, maximum, distinct)
    ts.columns["b"] = ColumnStatistics(minimum, maximum, distinct)
    return ts


class TestEvaluation:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 5, True),
            ("=", 6, False),
            ("!=", 6, True),
            ("<", 6, True),
            ("<", 5, False),
            ("<=", 5, True),
            (">", 4, True),
            (">=", 5, True),
            (">=", 6, False),
        ],
    )
    def test_comparison_ops(self, op, value, expected):
        assert evaluate(Comparison("a", op, value), (5, 0)) is expected

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError):
            Comparison("a", "~", 1)

    def test_and_or_not(self):
        p = And(Comparison("a", ">", 1), Comparison("b", "<", 10))
        assert evaluate(p, (5, 5))
        assert not evaluate(p, (0, 5))
        q = Or(Comparison("a", "=", 9), Comparison("b", "=", 9))
        assert evaluate(q, (9, 0))
        assert evaluate(q, (0, 9))
        assert not evaluate(q, (0, 0))
        assert evaluate(Not(q), (0, 0))

    def test_true_predicate(self):
        assert evaluate(TRUE, (1, 2))
        assert TRUE.columns() == set()

    def test_operator_sugar(self):
        p = Comparison("a", ">", 1) & Comparison("b", "<", 5)
        assert isinstance(p, And)
        q = Comparison("a", ">", 1) | Comparison("b", "<", 5)
        assert isinstance(q, Or)
        assert isinstance(~q, Not)

    def test_columns_collected(self):
        p = And(Comparison("a", ">", 1), Not(Comparison("b", "=", 2)))
        assert p.columns() == {"a", "b"}

    def test_validate_unknown_column(self):
        with pytest.raises(QueryError):
            Comparison("zz", "=", 1).validate(SCHEMA)


class TestSelectivity:
    def test_equality_uses_distinct_count(self):
        assert Comparison("a", "=", 5).selectivity(stats(distinct=50)) == pytest.approx(
            1 / 50
        )

    def test_inequality_complement(self):
        assert Comparison("a", "!=", 5).selectivity(
            stats(distinct=50)
        ) == pytest.approx(1 - 1 / 50)

    def test_range_interpolates(self):
        assert Comparison("a", "<=", 25).selectivity(stats(0, 100)) == pytest.approx(
            0.25
        )
        assert Comparison("a", ">=", 25).selectivity(stats(0, 100)) == pytest.approx(
            0.75
        )

    def test_range_clamped_to_unit_interval(self):
        assert Comparison("a", "<=", 1000).selectivity(stats(0, 100)) == 1.0
        assert Comparison("a", "<=", -5).selectivity(stats(0, 100)) == 0.0

    def test_no_stats_falls_back_to_magic(self):
        empty = TableStatistics(cardinality=0)
        assert Comparison("a", "<", 1).selectivity(empty) == pytest.approx(1 / 3)

    def test_degenerate_single_value_column(self):
        s = stats(5, 5)
        assert Comparison("a", "<=", 5).selectivity(s) == 1.0
        assert Comparison("a", "<", 5).selectivity(s) == 0.0

    def test_and_multiplies(self):
        p = And(Comparison("a", "<=", 50), Comparison("b", "<=", 50))
        assert p.selectivity(stats(0, 100)) == pytest.approx(0.25)

    def test_or_inclusion_exclusion(self):
        p = Or(Comparison("a", "<=", 50), Comparison("b", "<=", 50))
        assert p.selectivity(stats(0, 100)) == pytest.approx(0.75)

    def test_not_complements(self):
        p = Not(Comparison("a", "<=", 25))
        assert p.selectivity(stats(0, 100)) == pytest.approx(0.75)

    def test_true_selectivity(self):
        assert TRUE.selectivity(stats()) == 1.0

    def test_selectivity_in_unit_interval(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            s = Comparison("a", op, 30).selectivity(stats())
            assert 0.0 <= s <= 1.0


class TestConjuncts:
    def test_flattens_nested_ands(self):
        p = And(And(Comparison("a", ">", 1), Comparison("a", "<", 9)), TRUE)
        terms = conjuncts(p)
        assert len(terms) == 2

    def test_conjoin_empty_is_true(self):
        assert isinstance(conjoin([]), TruePredicate)

    def test_conjoin_roundtrip(self):
        terms = [Comparison("a", ">", 1), Comparison("b", "<", 9)]
        assert conjuncts(conjoin(terms)) == terms


class TestExtractKeyRange:
    def test_no_sargable_terms(self):
        rng, residual = extract_key_range(Comparison("b", "<", 5), "a")
        assert rng is None
        assert residual == Comparison("b", "<", 5)

    def test_single_lower_bound(self):
        rng, residual = extract_key_range(Comparison("a", ">", 5), "a")
        assert rng == KeyRange(5, None, False, True)
        assert isinstance(residual, TruePredicate)

    def test_two_sided_range(self):
        p = And(Comparison("a", ">=", 5), Comparison("a", "<", 10))
        rng, residual = extract_key_range(p, "a")
        assert rng == KeyRange(5, 10, True, False)
        assert isinstance(residual, TruePredicate)

    def test_point_from_equality(self):
        rng, _ = extract_key_range(Comparison("a", "=", 7), "a")
        assert rng.is_point

    def test_residual_keeps_other_columns(self):
        p = And(Comparison("a", "<=", 10), Comparison("b", "=", 1))
        rng, residual = extract_key_range(p, "a")
        assert rng == KeyRange(None, 10, True, True)
        assert residual == Comparison("b", "=", 1)

    def test_or_is_not_sargable(self):
        p = Or(Comparison("a", "<", 5), Comparison("a", ">", 50))
        rng, residual = extract_key_range(p, "a")
        assert rng is None
        assert residual is p

    def test_not_equal_is_not_sargable(self):
        rng, residual = extract_key_range(Comparison("a", "!=", 5), "a")
        assert rng is None

    def test_tightest_bounds_win(self):
        p = And(Comparison("a", ">", 3), Comparison("a", ">=", 7))
        rng, _ = extract_key_range(p, "a")
        assert rng.low == 7 and rng.low_inclusive

    def test_equality_never_loosens_an_exclusive_bound(self):
        # a<1 AND a=1 is empty: the range must stay [1, 1), not widen
        # to the point [1, 1] (regression: the = branch used to flip an
        # exclusive bound at the same key back to inclusive).
        rng, _ = extract_key_range(
            And(Comparison("a", "<", 1), Comparison("a", "=", 1)), "a"
        )
        assert rng == KeyRange(1, 1, True, False)
        rng, _ = extract_key_range(
            And(Comparison("a", ">", 1), Comparison("a", "=", 1)), "a"
        )
        assert rng == KeyRange(1, 1, False, True)

    def test_equality_intersects_with_disjoint_bounds(self):
        # a=5 AND a<3: the bounds cross, so the range selects nothing.
        rng, _ = extract_key_range(
            And(Comparison("a", "=", 5), Comparison("a", "<", 3)), "a"
        )
        assert rng.low > rng.high
        rng, _ = extract_key_range(
            And(Comparison("a", "=", 2), Comparison("a", "=", 4)), "a"
        )
        assert rng.low > rng.high

    def test_key_range_flags(self):
        assert KeyRange(1, 1).is_point
        assert KeyRange(1, None).is_bounded
        assert not KeyRange().is_bounded


@settings(max_examples=50, deadline=None)
@given(
    low=st.integers(0, 100),
    width=st.integers(0, 100),
    rows=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=60),
)
def test_property_extracted_range_equivalent_to_predicate(low, width, rows):
    """KeyRange + residual together must accept exactly the original rows."""
    predicate = And(
        And(Comparison("a", ">=", low), Comparison("a", "<=", low + width)),
        Comparison("b", "<", 150),
    )
    key_range, residual = extract_key_range(predicate, "a")
    assert key_range is not None
    for row in rows:
        in_range = (key_range.low is None or row[0] >= key_range.low) and (
            key_range.high is None or row[0] <= key_range.high
        )
        reconstructed = in_range and holds(residual, row, SCHEMA)
        assert reconstructed == holds(predicate, row, SCHEMA)
