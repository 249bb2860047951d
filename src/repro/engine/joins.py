"""Join methods: block nested-loop, index nested-loop, sort-merge, hash.

Every method produces the identical (bag-equivalent) result; they differ
in the physical work they report, which is what drives the simulated
elapsed times the cost models are trained on.  To keep large joins fast,
the actual matching is one shared matcher over the operands' key arrays
(:func:`_match_pairs`) — the *metrics* are what model each algorithm, and
correctness tests verify all methods agree with a naive reference join.

Per the paper's Table 3, each operand's *intermediate table* is the
operand reduced by its local selection; join variables include both
intermediate cardinalities and the size of their Cartesian product.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .access import selection_mask
from .buffer import BufferPool, charge_random_pages, charge_sequential_pages
from .errors import ExecutionError
from .index import Index, IndexKind
from .metrics import AccessInfo, ExecutionMetrics, sort_comparisons_for
from .predicate import FLOAT_EXACT_INT
from .query import JoinQuery
from .table import ResultTable, Table

#: Buffer pages available to a block nested-loop join.
NLJ_BUFFER_PAGES = 64


@dataclass
class JoinExecution:
    """Outcome of one join method."""

    result: ResultTable
    metrics: ExecutionMetrics
    left_info: AccessInfo
    right_info: AccessInfo
    method: str


_sort_comparisons = sort_comparisons_for


def _reduce_operand(
    table: Table,
    predicate,
    metrics: ExecutionMetrics,
    pool: BufferPool | None = None,
) -> np.ndarray:
    """Apply a local selection by scanning the operand, charging the work.

    Returns the ids of the surviving rows — the intermediate table, as
    a selection vector over the operand's column arrays.
    """
    charge_sequential_pages(metrics, pool, table.name, table.num_pages)
    metrics.tuples_read += table.cardinality
    metrics.tuples_evaluated += table.cardinality
    selected = np.flatnonzero(selection_mask(table, predicate))
    metrics.intermediate_tuples += len(selected)
    return selected


def _numpy_orders_like_python(lkeys: np.ndarray, rkeys: np.ndarray) -> bool:
    """Whether sorting and searching these keys in numpy matches ``==``.

    Unicode against unicode and same-kind numbers do.  Mixed int/float
    keys are compared as float64, which is exact only while every
    integer is within ±2**53 (the rule ``Comparison`` applies to its
    constant).  A column holds no NaN.  Object arrays hold whatever the
    typed arrays could not.
    """
    kinds = {lkeys.dtype.kind, rkeys.dtype.kind}
    if kinds == {"U"}:
        return True
    if not kinds <= {"i", "f"}:
        return False
    if len(kinds) == 1:
        return True
    ints = lkeys if lkeys.dtype.kind == "i" else rkeys
    return -FLOAT_EXACT_INT < ints.min() and ints.max() < FLOAT_EXACT_INT


def _match_pairs(lkeys: np.ndarray, rkeys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs of equal join keys, as positions into *lkeys* and *rkeys*.

    Pairs come left-position major, right positions ascending within a
    key, whichever branch finds them.  The numpy branch — a stable
    argsort of the right keys plus two ``searchsorted`` calls — is taken
    when the key dtypes allow it; hash buckets over the Python values
    decide everything else.
    """
    empty = np.empty(0, dtype=np.intp)
    if not len(lkeys) or not len(rkeys):
        return empty, empty
    if not _numpy_orders_like_python(lkeys, rkeys):
        buckets: dict = defaultdict(list)
        for position, key in enumerate(rkeys.tolist()):
            buckets[key].append(position)
        lpos: list[int] = []
        rpos: list[int] = []
        for position, key in enumerate(lkeys.tolist()):
            matches = buckets.get(key, ())
            lpos.extend([position] * len(matches))
            rpos.extend(matches)
        return np.asarray(lpos, dtype=np.intp), np.asarray(rpos, dtype=np.intp)
    order = np.argsort(rkeys, kind="stable")
    rsorted = rkeys[order]
    starts = np.searchsorted(rsorted, lkeys, side="left")
    counts = np.searchsorted(rsorted, lkeys, side="right") - starts
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    lpos = np.repeat(np.arange(len(lkeys)), counts)
    # Concatenated ranges starts[i]..ends[i]: position within each
    # segment plus the segment's start.
    segment_firsts = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(segment_firsts, counts)
    return lpos, order[np.repeat(starts, counts) + offsets]


def _match_operands(
    left: Table, right: Table, query: JoinQuery, li: np.ndarray, ri: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row ids (left, right) of the matching pairs of two intermediates."""
    lpos, rpos = _match_pairs(
        left.column_array(query.left_column)[li],
        right.column_array(query.right_column)[ri],
    )
    return li[lpos], ri[rpos]


def _join_result(
    left: Table, right: Table, query: JoinQuery, lids: np.ndarray, rids: np.ndarray
) -> ResultTable:
    """The query's qualified output columns over the matched row-id pairs."""
    out_cols = query.output_columns(left.schema, right.schema)
    gathers = []
    tuple_length = 0
    for qualified in out_cols:
        tname, _, cname = qualified.partition(".")
        table, ids = (left, lids) if tname == query.left else (right, rids)
        gathers.append((table.column_array(cname), ids))
        tuple_length += table.schema.column(cname).width
    return ResultTable(out_cols, tuple_length, gathers=gathers)


def _operand_info(
    table: Table, intermediate: int, method: str
) -> AccessInfo:
    return AccessInfo(
        method=method,
        operand_cardinality=table.cardinality,
        intermediate_cardinality=intermediate,
        operand_tuple_length=table.tuple_length,
    )


def nested_loop_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Block nested-loop join over the reduced operands.

    The smaller intermediate is the outer; the inner is rescanned once per
    outer block of :data:`NLJ_BUFFER_PAGES` pages.  Every pair of
    intermediate tuples is charged a predicate evaluation.  With a buffer
    pool, the inner rescans replay the inner table's pages through the
    cache, so an inner relation that fits in the pool is read from disk
    only once.
    """
    query.validate(left.schema, right.schema)
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ri = _reduce_operand(right, query.right_predicate, metrics, pool)

    # Work accounting: rescan the inner once per outer block.
    outer_rows, inner_table = (li, right) if len(li) <= len(ri) else (ri, left)
    outer_table = left if inner_table is right else right
    outer_pages = outer_table.layout.pages_for(len(outer_rows), outer_table.tuple_length)
    blocks = max(1, math.ceil(outer_pages / NLJ_BUFFER_PAGES))
    for _ in range(blocks - 1):
        charge_sequential_pages(metrics, pool, inner_table.name, inner_table.num_pages)
    metrics.tuples_read += (blocks - 1) * inner_table.cardinality
    metrics.tuples_evaluated += len(li) * len(ri)

    result = _join_result(left, right, query, *_match_operands(left, right, query, li, ri))
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "nested_loop_join"),
        _operand_info(right, len(ri), "nested_loop_join"),
        "nested_loop_join",
    )


def index_nested_loop_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    inner_index: Index,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Index nested-loop join probing *inner_index* on the right operand.

    The right operand is never pre-scanned: each outer tuple traverses the
    index (height random reads) and fetches its matches, with the right
    local selection applied as a residual.  With a buffer pool the upper
    index levels stay resident across probes, so repeated traversals cost
    little — the classic INLJ win the amortized formulas only approximate.
    """
    query.validate(left.schema, right.schema)
    if inner_index.table is not right:
        raise ExecutionError("inner_index must index the right operand")
    if inner_index.column_name != query.right_column:
        raise ExecutionError(
            f"inner_index is on {inner_index.column_name!r}, join needs "
            f"{query.right_column!r}"
        )
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)

    # One exact-match descent per outer tuple, in outer order, all in one
    # pass over the index's arrays.  With a pool, each descent's pages
    # (its traversal, then its matches' data pages) are laid out in that
    # order and played through the pool at once.  The right local
    # selection is applied to all fetched ids afterwards.
    fetched, fanout, paths = inner_index.probe(left.column_array(query.left_column)[li])
    rows_per_page = right.layout.rows_per_page(right.tuple_length)
    if pool is None:
        descents = len(li) * inner_index.height
        if inner_index.kind is IndexKind.CLUSTERED:
            runs = int(np.ceil(fanout / rows_per_page).sum())
            metrics.sequential_page_reads += runs
            metrics.logical_page_reads += runs
            charge_random_pages(metrics, None, count=descents)
        else:
            ratio = inner_index.clustering_ratio()
            fetches = np.ceil(fanout * (1.0 - ratio) + fanout * ratio / rows_per_page)
            charge_random_pages(metrics, None, count=descents + int(fetches.sum()))
    else:
        height = inner_index.height
        ends = np.cumsum(fanout + height)
        is_node = np.zeros(int(ends[-1]) if len(ends) else 0, dtype=bool)
        is_node[((ends - fanout - height)[:, None] + np.arange(height)).ravel()] = True
        pages = np.empty(len(is_node), dtype=np.int64)
        pages[is_node] = (paths + pool.page_space("I", inner_index.name)).ravel()
        pages[~is_node] = fetched // rows_per_page + pool.page_space("T", right.name)
        charge_random_pages(metrics, pool, keys=pages.tolist())
    metrics.tuples_read += len(fetched)
    metrics.tuples_evaluated += len(fetched)
    keep = selection_mask(right, query.right_predicate, fetched)
    lids, rids = np.repeat(li, fanout)[keep], fetched[keep]
    matched_inner = len(np.unique(rids))
    metrics.intermediate_tuples += matched_inner

    result = _join_result(left, right, query, lids, rids)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "index_nested_loop_join"),
        _operand_info(right, matched_inner, "index_nested_loop_join"),
        "index_nested_loop_join",
    )


def sort_merge_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Sort-merge join: sort both intermediates on the join key, then merge."""
    query.validate(left.schema, right.schema)
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ri = _reduce_operand(right, query.right_predicate, metrics, pool)

    metrics.sort_comparisons += _sort_comparisons(len(li)) + _sort_comparisons(len(ri))
    # Merge pass touches each intermediate tuple once (plus duplicate-key
    # rescans, charged through the pair evaluations below).
    lids, rids = _match_operands(left, right, query, li, ri)
    metrics.tuples_evaluated += len(li) + len(ri) + len(lids)

    result = _join_result(left, right, query, lids, rids)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "sort_merge_join"),
        _operand_info(right, len(ri), "sort_merge_join"),
        "sort_merge_join",
    )


def hash_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Classic hash join: build on the smaller intermediate, probe the other."""
    query.validate(left.schema, right.schema)
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ri = _reduce_operand(right, query.right_predicate, metrics, pool)

    build, probe = (li, ri) if len(li) <= len(ri) else (ri, li)
    metrics.hash_operations += len(build) + len(probe)

    lids, rids = _match_operands(left, right, query, li, ri)
    metrics.tuples_evaluated += len(lids)

    result = _join_result(left, right, query, lids, rids)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "hash_join"),
        _operand_info(right, len(ri), "hash_join"),
        "hash_join",
    )


def naive_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Reference tuple-at-a-time nested-loops join.

    Scans the left operand once and rescans the right operand for every
    qualifying left tuple — the textbook worst case.  It reports through
    the same :class:`ExecutionMetrics` page accounting as the other join
    methods (and replays its rescans through the buffer pool when one is
    supplied), so tests can pin all five methods to identical result
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
    for lid, lrow in enumerate(left):
        metrics.tuples_evaluated += 1
        if not query.left_predicate.evaluate(lrow, left.schema):
            continue
        left_qualifying += 1
        charge_sequential_pages(metrics, pool, right.name, right.num_pages)
        metrics.tuples_read += right.cardinality
        for rid, rrow in enumerate(right):
            metrics.tuples_evaluated += 1
            if not query.right_predicate.evaluate(rrow, right.schema):
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
