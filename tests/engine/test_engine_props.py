"""Whole-engine property tests: any generated query, any access path,
always the same answer as the naive reference evaluation."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import LocalDatabase
from repro.engine.predicate import And, Comparison, Not, Or
from repro.engine.query import SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType

from .reference import filter_rows


def build_db() -> LocalDatabase:
    db = LocalDatabase("prop_db", noise_sigma=0.0, seed=42)
    rng = np.random.default_rng(42)
    db.create_table(
        "t",
        [
            Column("a", DataType.INT),
            Column("b", DataType.INT),
            Column("c", DataType.INT),
        ],
        [
            (
                int(rng.integers(0, 500)),
                int(rng.integers(0, 60)),
                int(rng.integers(0, 8)),
            )
            for _ in range(700)
        ],
    )
    db.create_index("t_a", "t", "a")
    db.analyze()
    return db


DB = build_db()
TABLE = DB.catalog.table("t")

comparison = st.builds(
    Comparison,
    column=st.sampled_from(["a", "b", "c"]),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=st.integers(-10, 520),
)
predicate = st.recursive(
    comparison,
    lambda sub: st.one_of(
        st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)
    ),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(
    pred=predicate,
    columns=st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3),
    limit=st.one_of(st.none(), st.integers(0, 50)),
    order_col=st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
)
def test_property_executed_result_matches_naive(pred, columns, limit, order_col):
    """Whatever plan the optimizer picks, the rows match the naive
    filter+project (+sort+limit) result on everything that is
    plan-independent."""
    order_by = ((order_col, True),) if order_col else ()
    query = SelectQuery("t", tuple(columns), pred, order_by=order_by, limit=limit)
    result = DB.execute(query)

    out_cols = query.output_columns(TABLE.schema)
    positions = [TABLE.schema.position(c) for c in out_cols]
    matching = filter_rows(TABLE, pred)
    projected = [tuple(r[p] for p in positions) for r in matching]
    rows = result.result.rows

    if limit is None:
        assert sorted(rows) == sorted(projected)
    else:
        # WHICH qualifying rows survive a LIMIT is plan-dependent (a seq
        # scan and an index scan emit rows in different orders; under
        # ORDER BY, ties at the cutoff are plan-dependent too).  Assert
        # the plan-independent facts instead: the count, and that every
        # returned row is a qualifying row, with multiplicity.
        assert len(rows) == min(limit, len(projected))
        assert not Counter(rows) - Counter(projected)
    if order_col:
        # The multiset of sort keys in any correct answer is exactly the
        # sorted (prefix of the) qualifying keys — even with ties.
        pos = TABLE.schema.position(order_col)
        expected_keys = sorted(r[pos] for r in matching)
        if limit is not None:
            expected_keys = expected_keys[:limit]
        if order_col in out_cols:
            key_pos = out_cols.index(order_col)
            assert [r[key_pos] for r in rows] == expected_keys
    assert result.cardinality == len(rows)

    # Physical sanity, whatever the plan.
    assert result.metrics.tuples_output == result.cardinality
    assert result.metrics.tuples_read >= result.metrics.tuples_output
    assert result.elapsed > 0


@settings(max_examples=40, deadline=None)
@given(pred=predicate)
def test_property_plan_agrees_with_classification(pred):
    """The executed plan is always the one classification predicted."""
    from repro.core.classification import classify

    query = SelectQuery("t", ("a",), pred)
    predicted = classify(DB, query)
    assert DB.execute(query).plan == predicted.access_method
