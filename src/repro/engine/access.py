"""Unary access methods: sequential scan and index scans.

Each access method returns the result — the ids of the qualifying rows,
gathered into tuples only when somebody reads them — *and* the physical
work it performed, plus an :class:`~repro.engine.metrics.AccessInfo`
describing the globally observable facts (operand / intermediate sizes)
that the paper's cost-model variables are built from.

The three methods mirror the access paths behind the paper's unary query
classes: sequential scan (class :math:`G_1`), clustered-index scan, and
non-clustered index scan (:math:`G_2`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buffer import (
    BufferPool,
    charge_random_pages,
    charge_sequential_pages,
    data_page_of,
)
from .errors import ExecutionError
from .index import Index, IndexKind
from .metrics import AccessInfo, ExecutionMetrics, sort_comparisons_for
from .predicate import KeyRange, Predicate, TruePredicate, extract_key_range
from .query import SelectQuery
from .table import ResultTable, Table


@dataclass
class UnaryExecution:
    """Outcome of one unary access method."""

    result: ResultTable
    metrics: ExecutionMetrics
    info: AccessInfo


def selection_mask(
    table: Table, predicate: Predicate, ids: np.ndarray | None = None
) -> np.ndarray:
    """Which of the rows *ids* (default: every row) satisfy *predicate*.

    One boolean per candidate, in candidate order: the predicate is
    evaluated over the table's column arrays and the candidates are
    picked out.  The logical work is charged by the caller, once per
    candidate.
    """
    count = len(table) if ids is None else len(ids)
    if isinstance(predicate, TruePredicate) or not count:
        return np.ones(count, dtype=bool)
    mask = predicate.evaluate_batch(table)
    return mask if ids is None else mask[ids]


def _finalize(
    table: Table, query: SelectQuery, ids: np.ndarray, metrics: ExecutionMetrics
) -> ResultTable:
    """ORDER BY, LIMIT, and projection over the matching row ids.

    Sorting is charged as n·log2(n) comparisons on the *matching* set
    (sorting precedes LIMIT, as in SQL semantics) and done by Python's
    stable sort on the key values, one pass per key; the limit then
    caps the output-tuple count.  The projection is a gather per output
    column that the result performs when its rows are first read.
    """
    if query.order_by:
        metrics.sort_comparisons += sort_comparisons_for(len(ids))
        for column, ascending in reversed(query.order_by):
            keys = table.column_array(column)[ids].tolist()
            ids = ids[sorted(range(len(keys)), key=keys.__getitem__, reverse=not ascending)]
    if query.limit is not None:
        ids = ids[: query.limit]
    out_cols = query.output_columns(table.schema)
    result = ResultTable(
        out_cols,
        table.schema.projected_tuple_length(out_cols),
        gathers=[(table.column_array(name), ids) for name in out_cols],
    )
    metrics.tuples_output = result.cardinality
    return result


def seq_scan(
    table: Table, query: SelectQuery, pool: BufferPool | None = None
) -> UnaryExecution:
    """Full sequential scan: read every page, evaluate the full predicate."""
    query.validate(table.schema)
    metrics = ExecutionMetrics()
    charge_sequential_pages(metrics, pool, table.name, table.num_pages)
    metrics.tuples_read = table.cardinality

    metrics.tuples_evaluated += table.cardinality
    matching = np.flatnonzero(selection_mask(table, query.predicate))
    result = _finalize(table, query, matching, metrics)
    info = AccessInfo(
        method="seq_scan",
        operand_cardinality=table.cardinality,
        # A sequential scan has no sargable reduction: the "intermediate
        # table" equals the operand, per the static method's convention.
        intermediate_cardinality=table.cardinality,
        operand_tuple_length=table.tuple_length,
    )
    return UnaryExecution(result, metrics, info)


def _filter_row_ids(
    table: Table, row_ids: np.ndarray, residual: Predicate, metrics: ExecutionMetrics
) -> np.ndarray:
    """The fetched row ids that pass the residual, charged per fetched id."""
    metrics.tuples_evaluated += len(row_ids)
    return row_ids[selection_mask(table, residual, row_ids)]


def clustered_index_scan(
    table: Table, index: Index, query: SelectQuery, pool: BufferPool | None = None
) -> UnaryExecution:
    """Range scan through a clustered index.

    Traverses the B+-tree (``height`` random reads), then reads the
    physically contiguous run of qualifying pages sequentially.
    """
    query.validate(table.schema)
    if index.kind is not IndexKind.CLUSTERED:
        raise ExecutionError("clustered_index_scan requires a clustered index")
    key_range, residual = extract_key_range(query.predicate, index.column_name)
    if key_range is None:
        key_range = KeyRange()  # full-range scan via the index
        residual = query.predicate

    row_ids = index.range_lookup(
        key_range.low, key_range.high, key_range.low_inclusive, key_range.high_inclusive
    )
    metrics = ExecutionMetrics()
    if pool is None:
        charge_random_pages(metrics, None, count=index.height)
        fraction = len(row_ids) / table.cardinality if table.cardinality else 0.0
        charge_sequential_pages(
            metrics,
            None,
            table.name,
            table.layout.pages_for_fraction(
                table.cardinality, table.tuple_length, fraction
            ),
        )
    else:
        base = pool.page_space("I", index.name)
        charge_random_pages(
            metrics, pool, keys=[base + node for node in index.traversal_path(key_range.low)]
        )
        if len(row_ids):
            # Clustered rows are physically contiguous: the qualifying
            # pages are exactly the run from the first id's page to the
            # last id's page.
            rows_per_page = table.layout.rows_per_page(table.tuple_length)
            first = data_page_of(int(row_ids[0]), rows_per_page)
            last = data_page_of(int(row_ids[-1]), rows_per_page)
            charge_sequential_pages(
                metrics, pool, table.name, last - first + 1, start_page=first
            )
    metrics.tuples_read = len(row_ids)

    matching = _filter_row_ids(table, row_ids, residual, metrics)
    result = _finalize(table, query, matching, metrics)
    info = AccessInfo(
        method="clustered_index_scan",
        operand_cardinality=table.cardinality,
        intermediate_cardinality=len(row_ids),
        operand_tuple_length=table.tuple_length,
    )
    return UnaryExecution(result, metrics, info)


def nonclustered_index_scan(
    table: Table, index: Index, query: SelectQuery, pool: BufferPool | None = None
) -> UnaryExecution:
    """Index scan through a non-clustered index.

    Each qualifying tuple costs (up to) one random page read; runs of
    index-adjacent tuples that share a page — measured by the clustering
    ratio — amortize their reads.  With a buffer pool the amortization is
    played out concretely: each fetched tuple touches its actual data
    page, and repeat touches hit the cache.
    """
    query.validate(table.schema)
    if index.kind is not IndexKind.NONCLUSTERED:
        raise ExecutionError("nonclustered_index_scan requires a non-clustered index")
    key_range, residual = extract_key_range(query.predicate, index.column_name)
    if key_range is None or not key_range.is_bounded:
        raise ExecutionError(
            "nonclustered_index_scan needs a bounded sargable range on "
            f"{index.column_name}"
        )

    row_ids = index.range_lookup(
        key_range.low, key_range.high, key_range.low_inclusive, key_range.high_inclusive
    )
    metrics = ExecutionMetrics()
    k = len(row_ids)
    rows_per_page = table.layout.rows_per_page(table.tuple_length)
    if pool is None:
        ratio = index.clustering_ratio()
        # Unclustered fraction pays a random read per tuple; clustered runs
        # amortize over rows_per_page.
        tuple_fetch_ios = math.ceil(k * (1.0 - ratio) + k * ratio / rows_per_page)
        charge_random_pages(metrics, None, count=index.height + tuple_fetch_ios)
    else:
        # One pass: the traversal, then each fetched tuple's data page.
        base = pool.page_space("I", index.name)
        pages = [base + node for node in index.traversal_path(key_range.low)]
        pages += (row_ids // rows_per_page + pool.page_space("T", table.name)).tolist()
        charge_random_pages(metrics, pool, keys=pages)
    metrics.tuples_read = k

    matching = _filter_row_ids(table, row_ids, residual, metrics)
    result = _finalize(table, query, matching, metrics)
    info = AccessInfo(
        method="nonclustered_index_scan",
        operand_cardinality=table.cardinality,
        intermediate_cardinality=k,
        operand_tuple_length=table.tuple_length,
    )
    return UnaryExecution(result, metrics, info)

