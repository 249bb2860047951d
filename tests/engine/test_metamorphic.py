"""Metamorphic relations: answers of the engine that must agree with each other.

No reference computes these answers; the relations between them are the
check.  Each query runs on every access path or join method (as in
``test_sqlite_oracle.py``) and through the planner, on a pool-less and a
pooled site, and all of those must agree before a relation is checked:

* ``a<k AND a=k`` selects nothing (the key-range bug the property suites
  once found by luck);
* a predicate's rows are the multiset union of its rows with ``a<k`` and
  its rows with ``a>=k``;
* ``R ⋈ S`` returns the rows of ``S ⋈ R`` with the two halves swapped;
* estimated selectivity is monotone in the constant for ``<``, ``<=``,
  ``>`` and ``>=``;
* a conjunction's estimated selectivity is no more than either conjunct's.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.predicate import And, Comparison
from repro.engine.query import JoinQuery, SelectQuery
from repro.workload import make_site
from repro.workload.tablegen import COLUMN_NAMES

from .test_sqlite_oracle import JOIN_COLUMNS, TABLES, forced_runs, predicates

SEED = 4
SCALE = 0.01


@pytest.fixture(scope="module")
def sites():
    """A pool-less and a pooled site over the same tables."""
    return tuple(
        make_site("meta", scale=SCALE, seed=SEED, buffer_pages=pages).database
        for pages in (None, 32)
    )


@pytest.fixture(scope="module")
def statistics(sites):
    """{table: its statistics}."""
    return {table.name: table.statistics for table in sites[0].catalog.tables()}


def every_result(sites, query):
    """(how, rows) for *query* on every path of both sites."""
    for db in sites:
        for name, execution in forced_runs(db, query):
            yield f"{db.name} {name}", execution.result.rows
        run = db.run(query)
        yield f"{db.name} planner {run.plan}", run.result.rows


def one_answer(sites, query) -> Counter:
    """The row multiset every path of both sites returns for *query*."""
    answers = [(how, Counter(rows)) for how, rows in every_result(sites, query)]
    for how, answer in answers:
        assert answer == answers[0][1], f"{how} vs {answers[0][0]}: {query}"
    return answers[0][1]




def column_probes(columns=COLUMN_NAMES):
    """(table, column, row position, offset): the constant is the value that
    row holds, or one off it."""
    return st.tuples(
        st.sampled_from(TABLES),
        st.sampled_from(columns),
        st.integers(0, 10_000),
        st.integers(-1, 1),
    )


def probe_value(sites, table, column, position, offset):
    values = sites[0].catalog.table(table).column_values(column)
    return values[position % len(values)] + offset


# -- result relations ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    probe=column_probes(("a1", "a2", "a3", "a9")),
    strict=st.sampled_from(("<", ">")),
)
def test_strictly_below_and_equal_to_k_is_empty_on_every_path(sites, probe, strict):
    table, column = probe[:2]
    k = probe_value(sites, *probe)
    strict_term, equal_term = Comparison(column, strict, k), Comparison(column, "=", k)
    for predicate in (And(strict_term, equal_term), And(equal_term, strict_term)):
        for how, rows in every_result(sites, SelectQuery(table, (), predicate)):
            assert rows == [], f"{how}: {predicate}"


@settings(max_examples=60, deadline=None)
@given(
    probe=column_probes(),
    predicate=predicates,
)
def test_splitting_on_a_constant_partitions_the_rows(sites, probe, predicate):
    table, column = probe[:2]
    k = probe_value(sites, *probe)
    whole, below, above = (
        SelectQuery(table, (), p)
        for p in (
            predicate,
            And(predicate, Comparison(column, "<", k)),
            And(predicate, Comparison(column, ">=", k)),
        )
    )
    rows, low, high = (one_answer(sites, query) for query in (whole, below, above))
    assert rows == low + high, f"{predicate} split at {column} = {k}"


@settings(max_examples=40, deadline=None)
@given(
    tables=st.lists(st.sampled_from(TABLES), min_size=2, max_size=2, unique=True),
    columns=st.tuples(st.sampled_from(JOIN_COLUMNS), st.sampled_from(JOIN_COLUMNS)),
    local=st.tuples(predicates, predicates),
)
def test_a_commuted_join_returns_the_rows_with_their_halves_swapped(sites, tables, columns, local):
    (left, right), (lcol, rcol), (lpred, rpred) = tables, columns, local
    query = JoinQuery(left, right, lcol, rcol, (), lpred, rpred)
    commuted = JoinQuery(right, left, rcol, lcol, (), rpred, lpred)
    width = len(COLUMN_NAMES)
    rows, mirrored = one_answer(sites, query), one_answer(sites, commuted)
    swapped = Counter({row[width:] + row[:width]: count for row, count in mirrored.items()})
    assert rows == swapped, str(query)


# -- estimate relations --------------------------------------------------------------


def constants(column_stats) -> list[float]:
    """A sweep past both ends of the column, plus both sides of each end."""
    lo, hi = column_stats.minimum, column_stats.maximum
    grid = np.linspace(lo - 3, hi + 3, 97).tolist()
    grid += [edge + delta for edge in (lo, hi) for delta in (-1, -0.5, 0, 0.5, 1)]
    return sorted(set(grid) | {int(v) for v in grid})


def test_range_selectivity_is_monotone_in_the_constant(statistics):
    swept = 0
    for table, stats in statistics.items():
        for column in COLUMN_NAMES:
            column_stats = stats.column(column)
            points = constants(column_stats)
            for op, direction in (("<", 1), ("<=", 1), (">", -1), (">=", -1)):
                estimates = [Comparison(column, op, k).selectivity(stats) for k in points]
                steps = np.diff(estimates) * direction
                assert (steps >= 0).all(), (
                    f"{table}.{column} {op}: falls at "
                    f"{points[int(np.argmin(steps)) + 1]}"
                )
                assert 0.0 <= min(estimates) and max(estimates) <= 1.0
                swept += 1
    assert swept == len(TABLES) * len(COLUMN_NAMES) * 4


@settings(max_examples=150, deadline=None)
@given(
    table=st.sampled_from(TABLES),
    left=predicates,
    right=predicates,
)
def test_a_conjunction_is_no_more_selective_than_either_conjunct(statistics, table, left, right):
    stats = statistics[table]
    both = And(left, right).selectivity(stats)
    assert both <= left.selectivity(stats)
    assert both <= right.selectivity(stats)
