"""Property tests: the columnar ingest path equals the per-row reference.

``Table.bulk_load`` verifies a batch column by column and falls through
to ``TableSchema.validate_row`` for anything not already canonical (or
beyond int64); ``Table.analyze`` computes statistics with builtins over
extracted columns.  Both are pinned here against the loops they
replaced: same stored rows (values *and* types), same count, same
exception type and message, same minimum/maximum object on ties.  A
table loaded by column (a query result's gathered arrays) is pinned
against the same content loaded by rows, through every reader and
through clustering.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.errors import EngineError
from repro.engine.index import Index, IndexKind
from repro.engine.pages import PageLayout
from repro.engine.schema import Column, ColumnStatistics, TableSchema
from repro.engine.table import ResultTable, Table
from repro.engine.types import DataType


class MyInt(int):
    """An int subclass: valid for INT columns, stored as an int."""


CANONICAL = {
    DataType.INT: st.integers(-5, 5),
    DataType.FLOAT: st.floats(-5, 5, allow_nan=False).map(float),
    DataType.STR: st.sampled_from(["", "a", "b", "zz"]),
}

#: One valid value per type, for the row a table holds before the batch.
CANONICAL_ROW = {DataType.INT: 0, DataType.FLOAT: 0.0, DataType.STR: ""}

#: Values the per-row path must coerce or reject, whatever the column.
ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from(["a", "7"]),
    st.integers(-5, 5).map(np.int64),
    st.floats(-5, 5, allow_nan=False).map(np.float64),
    st.integers(-5, 5).map(MyInt),
    st.sampled_from([2**63, -(2**63) - 1]),
)

schemas = st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=4).map(
    lambda dtypes: TableSchema(
        "t", [Column(f"c{i}", dtype, 8) for i, dtype in enumerate(dtypes)]
    )
)


@st.composite
def batches(draw):
    """(schema, rows): canonical rows, salted with a drawn set of odd shapes.

    The salts are drawn per batch, so batches whose only oddity is a
    near-miss value (all tuples, right arity) are common: those are the
    ones a sloppier column check would wrongly take whole.
    """
    schema = draw(schemas)
    clean = st.tuples(*(CANONICAL[c.dtype] for c in schema.columns))
    salts = draw(st.sets(st.sampled_from(["list", "value", "arity"])))
    rows = []
    for row in draw(st.lists(clean, max_size=12)):
        kind = draw(st.sampled_from(["keep", *sorted(salts)]))
        if kind == "list":
            row = list(row)
        elif kind == "value":
            pos = draw(st.integers(0, len(row) - 1))
            row = row[:pos] + (draw(ODD),) + row[pos + 1 :]
        elif kind == "arity":
            row = row + (0,) if draw(st.booleans()) else row[:-1]
        rows.append(row)
    return schema, rows


def typed(rows):
    """Rows as (exact type, repr) pairs: 1, 1.0, True, -0.0 and NaN stay apart."""
    return [[(type(v), repr(v)) for v in row] for row in rows]


def reference_load(schema, rows):
    """The loop ``bulk_load`` replaced: one ``validate_row`` per row."""
    stored = []
    for row in rows:
        stored.append(schema.validate_row(row))
    return stored


@settings(max_examples=300, deadline=None)
@given(batch=batches(), container=st.sampled_from([list, tuple, iter]))
def test_bulk_load_equals_per_row_validation(batch, container):
    schema, rows = batch
    table = Table(schema)
    table.bulk_load([tuple(CANONICAL_ROW[c.dtype] for c in schema.columns)])
    before = table.rows()
    try:
        expected = reference_load(schema, rows)
    except EngineError as error:
        with pytest.raises(type(error)) as raised:
            table.bulk_load(container(rows))
        assert str(raised.value) == str(error)
        assert table.rows() == before
        return
    assert table.bulk_load(container(rows)) == len(expected)
    stored = table.rows()[len(before) :]
    assert typed(stored) == typed(expected)
    assert all(type(row) is tuple for row in stored)


def test_bulk_load_of_nothing():
    table = Table(TableSchema("t", [Column("a", DataType.INT)]))
    assert table.bulk_load([]) == 0
    assert table.bulk_load(iter(())) == 0
    assert table.cardinality == 0
    assert table.analyze().column("a") == ColumnStatistics()


def one_pass_statistics(values):
    """The scan ``from_values`` replaced: strict comparisons keep the first."""
    minimum = maximum = None
    distinct = set()
    for v in values:
        if minimum is None or v < minimum:
            minimum = v
        if maximum is None or v > maximum:
            maximum = v
        distinct.add(v)
    return minimum, maximum, len(distinct)


#: Small range, ints and floats mixed: ties such as 1 / 1.0 and 0 / -0.0.
tied_numbers = st.lists(
    st.one_of(
        st.integers(-2, 2),
        st.integers(-2, 2).map(float),
        st.sampled_from([-0.0, 0.5, float("inf")]),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(values=tied_numbers, container=st.sampled_from([list, tuple, iter]))
def test_from_values_equals_one_pass_scan(values, container):
    stats = ColumnStatistics.from_values(container(values))
    minimum, maximum, distinct = one_pass_statistics(values)
    assert typed([[stats.minimum, stats.maximum]]) == typed([[minimum, maximum]])
    assert stats.distinct_count == distinct


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.floats(-3, 3, allow_nan=False).map(float),
            st.sampled_from(["a", "b", "c"]),
        ),
        max_size=40,
    ),
)
def test_analyze_equals_per_column_scan(rows):
    schema = TableSchema(
        "t",
        [
            Column("i", DataType.INT),
            Column("f", DataType.FLOAT),
            Column("s", DataType.STR, 4),
        ],
    )
    table = Table(schema)
    table.bulk_load(rows)
    stats = table.analyze()
    assert stats.cardinality == len(rows)
    for pos, column in enumerate(schema.columns):
        values = [row[pos] for row in rows]
        got = stats.column(column.name)
        assert (got.minimum, got.maximum, got.distinct_count) == one_pass_statistics(
            values
        )
        assert table.column_values(column.name) == values
        assert table.column_array(column.name).tolist() == values


#: Mutation scripts over one three-column table.
int_rows = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=6)
table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.tuples(*[st.integers(-3, 3)] * 3)),
        st.tuples(st.just("bulk_load"), int_rows),
        st.tuples(st.just("cluster_on"), st.sampled_from(["a", "b", "c"])),
        st.tuples(st.just("fork")),
        st.tuples(st.just("analyze")),
        st.tuples(st.just("read"), st.sampled_from(["a", "b", "c"])),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(ops=table_ops)
def test_lazy_statistics_equal_from_values_after_any_mutations(ops):
    """Statistics computed on first read equal ``from_values`` over the
    content they were analyzed on: through the table after any script of
    insert / bulk_load / cluster_on / fork, and through statistics held
    from before later mutations (which must still read the old content)."""
    schema = TableSchema("t", [Column(name, DataType.INT) for name in "abc"])
    table = Table(schema)
    table.bulk_load([(1, 2, 3), (3, 2, 1)])

    def expected(table):
        return {
            name: ColumnStatistics.from_values(table.column_values(name))
            for name in schema.column_names
        }

    held = []
    for kind, *args in ops:
        if kind == "insert":
            table.insert(args[0])
        elif kind == "bulk_load":
            table.bulk_load(args[0])
        elif kind == "cluster_on":
            table.cluster_on(args[0])
        elif kind == "fork":
            table = table.fork()
        elif kind == "analyze":
            held.append((table.analyze(), expected(table)))
        else:
            table.statistics.column(args[0])  # leave the other columns unread
    stats = table.statistics
    assert stats.cardinality == table.cardinality
    assert dict(stats.columns) == expected(table)
    for old, at_analyze in held:
        assert dict(old.columns) == at_analyze


COLUMNAR = TableSchema(
    "t",
    [Column("i", DataType.INT), Column("f", DataType.FLOAT), Column("j", DataType.INT)],
)
#: A few rows per page, so clustering ratios land between 0 and 1.
SMALL_PAGES = PageLayout(page_size=128)

#: Few distinct keys (ties) in i and f, -0.0 and inf among the floats,
#: and a mostly distinct j that shows any row out of place.
columnar_rows = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.one_of(
            st.sampled_from([-0.0, 0.0, 0.5, float("inf")]),
            st.integers(-2, 2).map(float),
        ),
        st.integers(0, 999),
    ),
    max_size=60,
)


def as_columns(rows) -> list[np.ndarray]:
    return [
        np.array([row[pos] for row in rows], dtype=dtype)
        for pos, dtype in enumerate((np.int64, np.float64, np.int64))
    ]


def loaded_by_columns(arrays) -> Table:
    """*arrays* as a batch that arrives by column, loaded into an empty table."""
    ids = np.arange(len(arrays[0]))
    batch = ResultTable(
        COLUMNAR.column_names,
        COLUMNAR.tuple_length,
        gathers=[(array, ids) for array in arrays],
    )
    table = Table(COLUMNAR, SMALL_PAGES)
    table.bulk_load(batch)
    return table


def index_shape(table: Table, column: str, kind: IndexKind) -> tuple:
    """Height, clustering ratio, entries and node paths of a fresh index."""
    index = Index("x", table, column, kind)
    return (
        index.height,
        index.clustering_ratio(),
        index.range_lookup().tolist(),
        [index.traversal_path(key) for key in [None, *table.column_values(column)]],
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=columnar_rows,
    key=st.sampled_from([None, "i", "f", "j"]),
    indexed=st.sampled_from(COLUMNAR.column_names),
)
@example(
    rows=[(1, 0.5, 5), (0, 1.0, 4), (1, -0.0, 3), (0, 0.0, 2)] * 6,
    key="f",
    indexed="i",
)
@example(
    rows=[(pos % 3, 0.0, pos) for pos in range(40)],
    key="i",
    indexed="j",
)
def test_a_table_loaded_by_column_equals_one_loaded_by_rows(rows, key, indexed):
    """Same content, two ways in: every reader agrees, before and after
    ``cluster_on``.
    """
    arrays = as_columns(rows)
    rows = list(zip(*(array.tolist() for array in arrays)))
    by_rows = Table(COLUMNAR, SMALL_PAGES)
    by_rows.bulk_load(rows)
    by_columns = loaded_by_columns(arrays)
    tables = (by_rows, by_columns)
    held = [table.analyze() for table in tables]

    expected = list(rows)
    if key is not None:
        for table in tables:
            table.cluster_on(key)
        pos = COLUMNAR.position(key)
        expected.sort(key=lambda row: row[pos])

    expected_columns = [[row[pos] for row in expected] for pos in range(3)]
    for table in tables:
        values = [table.column_values(name) for name in COLUMNAR.column_names]
        arrays = [table.column_array(name) for name in COLUMNAR.column_names]
        assert typed(values) == typed(expected_columns)
        assert [array.dtype for array in arrays] == ["int64", "float64", "int64"]
        assert typed([array.tolist() for array in arrays]) == typed(expected_columns)
    # Statistics held from before the clustering, and fresh ones after it.
    assert repr(dict(held[0].columns)) == repr(dict(held[1].columns))
    fresh = [table.analyze() for table in tables]
    assert repr(dict(fresh[0].columns)) == repr(dict(fresh[1].columns))
    assert index_shape(by_rows, indexed, IndexKind.NONCLUSTERED) == (
        index_shape(by_columns, indexed, IndexKind.NONCLUSTERED)
    )
    if key is not None:
        assert index_shape(by_rows, key, IndexKind.CLUSTERED) == (
            index_shape(by_columns, key, IndexKind.CLUSTERED)
        )

    assert typed(by_columns.rows()) == typed(by_rows.rows()) == typed(expected)
