"""Join methods: block nested-loop, index nested-loop, sort-merge, hash.

Every method produces the identical (bag-equivalent) result; they differ
in the physical work they report, which is what drives the simulated
elapsed times the cost models are trained on.  To keep large joins fast,
the actual matching is one shared numpy matcher over the operands' key
arrays (:func:`_match_pairs`) — the *metrics* are what model each
algorithm, and correctness tests verify all methods agree with a
tuple-at-a-time reference join.

Per the paper's Table 3, each operand's *intermediate table* is the
operand reduced by its local selection; join variables include both
intermediate cardinalities and the size of their Cartesian product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import selection_mask
from .buffer import BufferPool, charge_random_pages, charge_sequential_pages
from .errors import ExecutionError
from .index import Index, IndexKind
from .metrics import AccessInfo, ExecutionMetrics, sort_comparisons_for
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


def _int_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float *keys* an int64 key can equal, as (positions, int64 keys).

    Those are the integral floats within int64; any other float equals
    no int64 value, so it matches nothing.
    """
    positions = np.flatnonzero(
        (keys == np.floor(keys)) & (keys >= -(2.0**63)) & (keys < 2.0**63)
    )
    return positions, keys[positions].astype(np.int64)


def _match_pairs(lkeys: np.ndarray, rkeys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs of equal join keys, as positions into *lkeys* and *rkeys*.

    Pairs come left-position major, right positions ascending within a
    key: a stable argsort of the right keys plus two ``searchsorted``
    calls.  Keys of one dtype order in numpy as in Python (a column
    holds no NaN, strings are Python objects); INT keys joined to FLOAT
    keys are matched against the float side mapped exactly to int64
    (:func:`_int_keys`), which keeps the pairs' order.
    """
    empty = np.empty(0, dtype=np.intp)
    if not len(lkeys) or not len(rkeys):
        return empty, empty
    if lkeys.dtype.kind == "f" and rkeys.dtype.kind == "i":
        kept, lkeys = _int_keys(lkeys)
        lpos, rpos = _match_pairs(lkeys, rkeys)
        return kept[lpos], rpos
    if lkeys.dtype.kind == "i" and rkeys.dtype.kind == "f":
        kept, rkeys = _int_keys(rkeys)
        lpos, rpos = _match_pairs(lkeys, rkeys)
        return lpos, kept[rpos]
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

