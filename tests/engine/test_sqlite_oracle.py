"""stdlib ``sqlite3`` as the engine's outside oracle.

The cost models are fitted on what the engine returns: result and
intermediate cardinalities are read off executed queries, so a wrong row
count is a wrong regressor.  Every other engine test compares the engine
with itself or with a reference written beside it; this one asks an
independent SQL engine.

Each site's ``workload.tablegen`` tables are loaded into an in-memory
``sqlite3`` database, and every query's result is compared with
``sqlite3`` running the query's SQL text (``str(q)``): as a row multiset;
under ``ORDER BY`` as the sequence of sort keys too; under ``LIMIT`` as
the key prefix, or — without an order — as a sub-multiset of the right
size.  Each query runs

* through every access path that applies (sequential scan, the clustered
  index, a non-clustered index where the range is sargable) or every join
  method (nested loop, hash, sort-merge, index nested loop);
* through the planner, ``LocalDatabase.run``, with the query object and
  with its SQL text;
* on a pool-less site and on a pooled one, cold and then warm;
* on the template site and on a fork mutated by ``insert`` and
  ``bulk_load``.

The queries are the paper's six classes from ``QueryGenerator`` and a
hypothesis strategy of ``AND`` / ``OR`` / ``NOT`` comparisons over the
paper columns with ``ORDER BY`` and ``LIMIT``; a second strategy does the
same over tables with a FLOAT column holding ±0.0 and int-valued floats,
compared with INT and FLOAT constants and joined to INT keys.
"""

import sqlite3
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import G1, G2, G3, G4, G5, GC
from repro.engine.access import clustered_index_scan, nonclustered_index_scan, seq_scan
from repro.engine.database import LocalDatabase
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    hash_join,
    index_nested_loop_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.engine.predicate import And, Comparison, Not, Or, TRUE, extract_key_range
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType
from repro.workload import TableSpec, make_site
from repro.workload.tablegen import COLUMN_NAMES, COLUMN_RANGES, generate_columns


SEEDS = (3, 11)
SCALE = 0.01
BUFFER_PAGES = 32
QUERIES_PER_CLASS = 10
SQL_TYPES = {DataType.INT: "INTEGER", DataType.FLOAT: "REAL", DataType.STR: "TEXT"}


# -- sites and their sqlite3 twins ----------------------------------------------


def to_sqlite(db: LocalDatabase) -> sqlite3.Connection:
    """An in-memory sqlite3 database holding *db*'s tables, row for row."""
    conn = sqlite3.connect(":memory:")
    for table in db.catalog.tables():
        columns = table.schema.columns
        definition = ", ".join(f"{c.name} {SQL_TYPES[c.dtype]}" for c in columns)
        conn.execute(f"CREATE TABLE {table.name} ({definition})")
        marks = ", ".join("?" * len(columns))
        conn.executemany(f"INSERT INTO {table.name} VALUES ({marks})", table.rows())
    return conn


def mutated_fork(db: LocalDatabase) -> LocalDatabase:
    """A fork of *db*: a few rows inserted into half its tables, a batch
    bulk-loaded into the other half."""
    pages = None if db.buffer_pool is None else db.buffer_pool.capacity_pages
    fork = LocalDatabase(f"{db.name}_fork", noise_sigma=0.0, buffer_pages=pages)
    db.catalog.fork_into(fork.catalog)
    rng = np.random.default_rng(17)

    def rows(name, count):
        columns = generate_columns(TableSpec(name, count), rng)
        return list(zip(*(array.tolist() for array in columns)))

    for position, name in enumerate(fork.catalog.table_names):
        if position % 2:
            fork.bulk_load(name, rows(name, 40))
        else:
            for row in rows(name, 3):
                fork.insert(name, row)
    return fork


@pytest.fixture(scope="module")
def universes():
    """Per seed: the sites (pool-less, pooled) of each variant, their sqlite3
    twin, and the generated queries."""
    out = {}
    for seed in SEEDS:
        plain = make_site(f"oracle{seed}", scale=SCALE, seed=seed)
        pooled = make_site(f"oracle{seed}", scale=SCALE, seed=seed, buffer_pages=BUFFER_PAGES)
        queries = [
            query
            for query_class in (G1, G2, GC, G3, G4, G5)
            for query in plain.generator.queries_for(query_class, QUERIES_PER_CLASS)
        ]
        variants = {
            "template": (plain.database, pooled.database),
            "mutated_fork": (mutated_fork(plain.database), mutated_fork(pooled.database)),
        }
        out[seed] = ({v: (dbs, to_sqlite(dbs[0])) for v, dbs in variants.items()}, queries)
    yield out
    for variants, _ in out.values():
        for _, conn in variants.values():
            conn.close()


# -- the comparison ------------------------------------------------------------------


def assert_matches_sqlite(conn: sqlite3.Connection, query, result, how: str) -> None:
    """*result* (a ResultTable) is what sqlite3 returns for ``str(query)``."""
    rows = result.rows
    sql = str(query)
    expected = conn.execute(sql).fetchall()
    context = f"{how}: {sql}"
    order_by = getattr(query, "order_by", ())
    limit = getattr(query, "limit", None)
    if order_by:
        positions = [result.column_names.index(column) for column, _ in order_by]
        keys = [tuple(row[p] for p in positions) for row in rows]
        assert keys == [tuple(row[p] for p in positions) for row in expected], context
    if limit is None:
        assert Counter(rows) == Counter(expected), context
        return
    unlimited = Counter(conn.execute(str(replace(query, limit=None))).fetchall())
    assert len(rows) == len(expected), context
    assert not Counter(rows) - unlimited, context


# -- every path the engine could take ------------------------------------------------


def forced_runs(db: LocalDatabase, query):
    """(name, execution) for every access path or join method *query* allows."""
    pool = db.buffer_pool
    if isinstance(query, SelectQuery):
        table = db.catalog.table(query.table)
        yield "seq_scan", seq_scan(table, query, pool)
        for index in db.catalog.indexes_for(table.name):
            if index.kind is IndexKind.CLUSTERED:
                yield "clustered_index_scan", clustered_index_scan(table, index, query, pool)
                continue
            key_range, _ = extract_key_range(query.predicate, index.column_name)
            if key_range is not None and key_range.is_bounded:
                yield (
                    f"nonclustered_index_scan({index.column_name})",
                    nonclustered_index_scan(table, index, query, pool),
                )
        return
    left, right = db.catalog.table(query.left), db.catalog.table(query.right)
    for method in (nested_loop_join, hash_join, sort_merge_join):
        yield method.__name__, method(left, right, query, pool)
    inner = db.catalog.index_on(right.name, query.right_column) or Index(
        "oracle_inner", right, query.right_column, IndexKind.NONCLUSTERED
    )
    yield "index_nested_loop_join", index_nested_loop_join(left, right, query, inner, pool)


def check_everywhere(dbs, conn: sqlite3.Connection, query) -> None:
    """Compare *query* on every path of every site in *dbs* with sqlite3."""
    for db in dbs:
        pool = db.buffer_pool
        for state in ("cold", "warm") if pool is not None else ("",):
            if state == "cold":
                pool.clear()
            for name, execution in forced_runs(db, query):
                assert_matches_sqlite(conn, query, execution.result, f"{db.name} {state} {name}")
        for form in (query, str(query)):
            run = db.run(form)
            assert_matches_sqlite(conn, query, run.result, f"{db.name} planner {run.plan}")


@pytest.mark.parametrize("variant", ["template", "mutated_fork"])
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_queries_match_sqlite(universes, seed, variant):
    variants, queries = universes[seed]
    dbs, conn = variants[variant]
    for query in queries:
        check_everywhere(dbs, conn, query)


def test_the_mutated_fork_differs_from_its_template(universes):
    for variants, _ in universes.values():
        (template, _), template_conn = variants["template"]
        (fork, _), fork_conn = variants["mutated_fork"]
        for name in template.catalog.table_names:
            count = f"SELECT COUNT(*) FROM {name}"
            before, after = (c.execute(count).fetchone()[0] for c in (template_conn, fork_conn))
            assert before == template.catalog.table(name).cardinality
            assert after == fork.catalog.table(name).cardinality
            assert after - before in (3, 40)


# -- drawn predicates with ORDER BY and LIMIT -------------------------------------------

#: Largest value each paper column holds at this scale (``a1`` follows the
#: cardinality, at most 2,500 rows here).
BOUNDS = {column: bound or 2_500 for column, bound in COLUMN_RANGES.items()}
TABLES = tuple(f"R{i}" for i in range(1, 13))
#: Join columns whose joins stay small (no a9: ten values).
JOIN_COLUMNS = ("a1", "a2", "a3", "a4", "a8")

comparisons = st.sampled_from(COLUMN_NAMES).flatmap(
    lambda column: st.builds(
        Comparison,
        st.just(column),
        st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
        st.integers(-5, BOUNDS[column] + 5),
    )
)
predicates = st.just(TRUE) | st.recursive(
    comparisons,
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)),
    max_leaves=4,
)


@st.composite
def select_queries(draw):
    order_by = draw(
        st.lists(
            st.tuples(st.sampled_from(COLUMN_NAMES), st.booleans()),
            max_size=2,
            unique_by=lambda pair: pair[0],
        )
    )
    columns = draw(
        st.just([]) | st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=4, unique=True)
    )
    if columns:
        # The sort keys are compared, so the output carries them.
        columns += [column for column, _ in order_by if column not in columns]
    return SelectQuery(
        draw(st.sampled_from(TABLES)),
        columns,
        draw(predicates),
        order_by,
        draw(st.none() | st.integers(0, 25)),
    )


@st.composite
def join_queries(draw):
    left, right = draw(st.lists(st.sampled_from(TABLES), min_size=2, max_size=2, unique=True))
    qualified = [f"{table}.{column}" for table in (left, right) for column in COLUMN_NAMES]
    columns = st.lists(st.sampled_from(qualified), min_size=1, max_size=4, unique=True)
    return JoinQuery(
        left,
        right,
        draw(st.sampled_from(JOIN_COLUMNS)),
        draw(st.sampled_from(JOIN_COLUMNS)),
        draw(st.just(()) | columns),
        draw(predicates),
        draw(predicates),
    )


@settings(max_examples=150, deadline=None)
@given(query=st.one_of(select_queries(), join_queries()))
def test_drawn_queries_match_sqlite(universes, query):
    dbs, conn = universes[SEEDS[0]][0]["template"]
    check_everywhere(dbs, conn, query)


# -- FLOAT columns: ±0.0, and int-valued floats beside INT constants -------------

#: The FLOAT column's values: both zeros, halves and int-valued floats.
FLOATS = (-0.0, 0.0, 0.5, -1.0, 1.0, 2.0, 2.5, 3.0)
#: Constants: ints, the same values as floats, both zeros and halves.
NUMBERS = st.integers(-2, 4) | st.integers(-2, 4).map(float) | st.sampled_from([-0.0, 0.5, 2.5])
FLOAT_COLUMNS = ("i", "f")


def float_database(buffer_pages):
    """Tables of an INT column ``i`` and a FLOAT column ``f``: F1 clustered
    on ``f`` with an index on ``i``, F2 clustered on ``i`` with one on ``f``."""
    db = LocalDatabase("floats", noise_sigma=0.0, buffer_pages=buffer_pages)
    rng = np.random.default_rng(29)
    columns = [Column("i", DataType.INT), Column("f", DataType.FLOAT)]
    for name, clustered, other, count in (("F1", "f", "i", 300), ("F2", "i", "f", 200)):
        ints = rng.integers(-2, 5, size=count).tolist()
        floats = [FLOATS[pos] for pos in rng.integers(0, len(FLOATS), size=count).tolist()]
        db.create_table(name, columns, list(zip(ints, floats)))
        db.create_index(f"{name}_c", name, clustered, clustered=True)
        db.create_index(f"{name}_nc", name, other)
    return db


@pytest.fixture(scope="module")
def float_universe():
    dbs = (float_database(None), float_database(BUFFER_PAGES))
    conn = to_sqlite(dbs[0])
    yield dbs, conn
    conn.close()


float_predicates = st.just(TRUE) | st.recursive(
    st.builds(
        Comparison,
        st.sampled_from(FLOAT_COLUMNS),
        st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
        NUMBERS,
    ),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)),
    max_leaves=3,
)


@st.composite
def float_selects(draw):
    order_by = draw(
        st.lists(
            st.tuples(st.sampled_from(FLOAT_COLUMNS), st.booleans()),
            max_size=2,
            unique_by=lambda pair: pair[0],
        )
    )
    return SelectQuery(
        draw(st.sampled_from(("F1", "F2"))),
        [],
        draw(float_predicates),
        order_by,
        draw(st.none() | st.integers(0, 25)),
    )


@st.composite
def float_joins(draw):
    left, right = draw(st.permutations(("F1", "F2")))
    return JoinQuery(
        left,
        right,
        draw(st.sampled_from(FLOAT_COLUMNS)),
        draw(st.sampled_from(FLOAT_COLUMNS)),
        (),
        draw(float_predicates),
        draw(float_predicates),
    )


@settings(max_examples=60, deadline=None)
@given(query=st.one_of(float_selects(), float_joins()))
def test_float_columns_match_sqlite(float_universe, query):
    """INT and FLOAT keys, ±0.0 and int-valued constants: every access path
    and join method, pool-less and pooled, agrees with sqlite3."""
    dbs, conn = float_universe
    check_everywhere(dbs, conn, query)
