"""Reference implementations the engine's operators are compared with.

Plain Python over a table's rows: a predicate is evaluated by its
structure (:func:`holds`, as ``bench/oracle.py`` does), never by the
engine's numpy kernel, so a wrong mask or a wrong key match in the
engine shows as a row difference here.
"""

import operator

import numpy as np

from repro.engine.buffer import BufferPool, charge_sequential_pages
from repro.engine.joins import JoinExecution, _join_result, _operand_info
from repro.engine.metrics import ExecutionMetrics
from repro.engine.predicate import And, Comparison, Not, Or, Predicate, TruePredicate
from repro.engine.query import JoinQuery
from repro.engine.table import Table

_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def holds(predicate: Predicate, row, schema) -> bool:
    """Whether *row* satisfies *predicate*, under Python's comparison."""
    if isinstance(predicate, Comparison):
        return _OPS[predicate.op](row[schema.position(predicate.column)], predicate.value)
    if isinstance(predicate, And):
        return holds(predicate.left, row, schema) and holds(predicate.right, row, schema)
    if isinstance(predicate, Or):
        return holds(predicate.left, row, schema) or holds(predicate.right, row, schema)
    if isinstance(predicate, Not):
        return not holds(predicate.operand, row, schema)
    if isinstance(predicate, TruePredicate):
        return True
    raise TypeError(f"no reference for {type(predicate).__name__}")


def filter_rows(table: Table, predicate: Predicate) -> list:
    """Naive full filter: the rows of *table* that satisfy *predicate*."""
    return [row for row in table.rows() if holds(predicate, row, table.schema)]


def naive_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Reference tuple-at-a-time nested-loops join.

    Scans the left operand once and rescans the right operand for every
    qualifying left tuple — the textbook worst case.  It reports through
    the same :class:`ExecutionMetrics` page accounting as the engine's
    join methods (and replays its rescans through the buffer pool when
    one is supplied), so tests can pin every method to identical result
    sets *and* comparable physical-work ledgers.
    """
    query.validate(left.schema, right.schema)
    lpos = left.schema.position(query.left_column)
    rpos = right.schema.position(query.right_column)
    metrics = ExecutionMetrics()
    charge_sequential_pages(metrics, pool, left.name, left.num_pages)
    metrics.tuples_read += left.cardinality

    pairs: list[tuple[int, int]] = []
    left_qualifying = 0
    right_qualifying = 0
    first_rescan = True
    right_rows = right.rows()
    for lid, lrow in enumerate(left.rows()):
        metrics.tuples_evaluated += 1
        if not holds(query.left_predicate, lrow, left.schema):
            continue
        left_qualifying += 1
        charge_sequential_pages(metrics, pool, right.name, right.num_pages)
        metrics.tuples_read += right.cardinality
        for rid, rrow in enumerate(right_rows):
            metrics.tuples_evaluated += 1
            if not holds(query.right_predicate, rrow, right.schema):
                continue
            if first_rescan:
                right_qualifying += 1
            if lrow[lpos] == rrow[rpos]:
                pairs.append((lid, rid))
        first_rescan = False
    metrics.intermediate_tuples += left_qualifying + right_qualifying

    ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    result = _join_result(left, right, query, ids[:, 0], ids[:, 1])
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, left_qualifying, "naive_join"),
        _operand_info(right, right_qualifying, "naive_join"),
        "naive_join",
    )
