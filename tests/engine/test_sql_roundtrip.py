"""Property tests: query rendering and re-parsing agree.

`str(query)` is used in logs, catalogs, and probe descriptions; these
tests pin down that the rendered SQL parses back to a query that behaves
identically (same predicate decisions on every row).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import LocalDatabase
from repro.engine.predicate import And, Comparison, Or, Predicate, TRUE
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.sql import parse_query
from repro.engine.types import DataType

from .reference import holds

SCHEMA = TableSchema(
    "t", [Column("a", DataType.INT), Column("b", DataType.INT), Column("c", DataType.INT)]
)

comparison = st.builds(
    Comparison,
    column=st.sampled_from(["a", "b", "c"]),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=st.integers(-100, 100),
)


def predicates(depth: int = 2):
    if depth == 0:
        return comparison
    sub = predicates(depth - 1)
    return st.one_of(
        comparison,
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
    )


@settings(max_examples=80, deadline=None)
@given(
    predicate=predicates(),
    columns=st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3),
    rows=st.lists(
        st.tuples(
            st.integers(-120, 120), st.integers(-120, 120), st.integers(-120, 120)
        ),
        max_size=25,
    ),
)
def test_rendered_query_reparses_equivalently(predicate, columns, rows):
    query = SelectQuery("t", tuple(columns), predicate)
    reparsed = parse_query(str(query))
    assert isinstance(reparsed, SelectQuery)
    assert reparsed.table == "t"
    assert reparsed.columns == query.columns
    for row in rows:
        assert holds(reparsed.predicate, row, SCHEMA) == holds(predicate, row, SCHEMA)


@settings(max_examples=30, deadline=None)
@given(columns=st.lists(st.sampled_from(["a", "b", "c"]), unique=True, min_size=1))
def test_predicate_free_query_roundtrip(columns):
    query = SelectQuery("t", tuple(columns), TRUE)
    reparsed = parse_query(str(query))
    assert reparsed.columns == query.columns
    assert isinstance(reparsed.predicate, Predicate)
    row = (1, 2, 3)
    assert holds(reparsed.predicate, row, SCHEMA)


@settings(max_examples=120, deadline=None)
@given(
    left_predicate=st.one_of(st.just(TRUE), predicates()),
    right_predicate=st.one_of(st.just(TRUE), predicates()),
    columns=st.lists(
        st.sampled_from(["t.a", "t.c", "u.a", "u.b"]), unique=True, max_size=4
    ),
)
def test_join_query_roundtrips_through_database_parse(
    left_predicate, right_predicate, columns
):
    """Both operands have every column, as on R1..R12: unqualified
    predicate columns would be ambiguous, so the rendering qualifies them
    and the parser hands each operand its predicate back whole."""
    database = LocalDatabase("site")
    database.create_table("t", SCHEMA.columns)
    database.create_table("u", SCHEMA.columns)
    query = JoinQuery("t", "u", "a", "b", columns, left_predicate, right_predicate)
    assert database.parse(str(query)) == query
