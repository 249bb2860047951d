"""The vectorized index nested-loop join against a per-key reference.

``index_nested_loop_join`` probes every outer key in one pass over the
inner index's arrays.  The reference below is the same join written one
outer tuple at a time — a ``lookup`` and a ``traversal_path`` per key,
its pages charged as it goes.  Both must return the same rows, the same
:class:`ExecutionMetrics` (value and type) with and without a pool, and
play the same page ids through the pool, call for call, in the same order.
"""

import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.access import selection_mask
from repro.engine.buffer import BufferPool, charge_random_pages
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    JoinExecution,
    _join_result,
    _operand_info,
    _reduce_operand,
    index_nested_loop_join,
)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.pages import PageLayout
from repro.engine.predicate import Comparison, TruePredicate
from repro.engine.query import JoinQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import DataType


def per_key_index_nested_loop_join(left, right, query, inner_index, pool=None):
    """The index nested-loop join, one outer tuple at a time."""
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ratio = inner_index.clustering_ratio()
    rows_per_page = right.layout.rows_per_page(right.tuple_length)
    fanout, fetched, pages = [], [], []
    if pool is not None:
        index_base = pool.page_space("I", inner_index.name)
        table_base = pool.page_space("T", right.name)
    for key in left.column_array(query.left_column)[li].tolist():
        row_ids = inner_index.range_lookup(key, key).tolist()
        k = len(row_ids)
        if pool is None:
            charge_random_pages(metrics, None, count=inner_index.height)
            if inner_index.kind is IndexKind.CLUSTERED:
                metrics.sequential_page_reads += math.ceil(k / rows_per_page) if k else 0
                metrics.logical_page_reads += math.ceil(k / rows_per_page) if k else 0
            else:
                fetch = math.ceil(k * (1.0 - ratio) + k * ratio / rows_per_page)
                charge_random_pages(metrics, None, count=fetch)
        else:
            pages += [index_base + node for node in inner_index.traversal_path(key)]
            pages += [table_base + rid // rows_per_page for rid in row_ids]
        fanout.append(k)
        fetched.extend(row_ids)
    if pool is not None:
        charge_random_pages(metrics, pool, keys=pages)
    metrics.tuples_read += len(fetched)
    metrics.tuples_evaluated += len(fetched)
    rids = np.asarray(fetched, dtype=np.intp)
    keep = selection_mask(right, query.right_predicate, rids)
    lids, rids = np.repeat(li, fanout)[keep], rids[keep]
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


class RecordingPool(BufferPool):
    """A buffer pool that keeps every ``access_many`` key sequence."""

    def __init__(self, capacity_pages):
        super().__init__(capacity_pages, window=16, evict_scan=2)
        self.calls = []

    def access_many(self, keys):
        keys = list(keys)
        self.calls.append(keys)
        return super().access_many(keys)


#: Keys of each kind with ties, misses and values at float64's integer limit.
KEYS = {
    DataType.INT: st.integers(-3, 8) | st.sampled_from([2**53, 2**53 + 1, 2**63 - 1]),
    DataType.FLOAT: st.integers(-3, 8).map(float) | st.sampled_from([-0.0, 0.5, 2.0**53]),
}
#: A few rows per page, so fetched rows share pages and the pool evicts.
SMALL_PAGES = PageLayout(page_size=128)


def table(name, keys, dtype):
    schema = TableSchema(name, [Column("k", dtype), Column("p", DataType.INT)])
    out = Table(schema, SMALL_PAGES)
    out.bulk_load([(key, pos % 5) for pos, key in enumerate(keys)])
    return out


@settings(max_examples=200, deadline=None)
@given(
    left_type=st.sampled_from(list(KEYS)),
    right_type=st.sampled_from(list(KEYS)),
    data=st.data(),
    clustered=st.booleans(),
    capacity=st.none() | st.integers(1, 24),
    left_filter=st.booleans(),
    right_filter=st.booleans(),
)
def test_vectorized_join_equals_the_per_key_reference(
    left_type, right_type, data, clustered, capacity, left_filter, right_filter
):
    left = table("l", data.draw(st.lists(KEYS[left_type], max_size=40)), left_type)
    right = table("r", data.draw(st.lists(KEYS[right_type], max_size=60)), right_type)
    if clustered:
        right.cluster_on("k")
    kind = IndexKind.CLUSTERED if clustered else IndexKind.NONCLUSTERED
    inner = Index("ix", right, "k", kind, order=data.draw(st.sampled_from([3, 4, 64])))
    query = JoinQuery(
        "l",
        "r",
        "k",
        "k",
        (),
        Comparison("p", "<", 3) if left_filter else TruePredicate(),
        Comparison("p", ">", 0) if right_filter else TruePredicate(),
    )
    runs = []
    for join in (per_key_index_nested_loop_join, index_nested_loop_join):
        pool = None if capacity is None else RecordingPool(capacity)
        runs.append((join(left, right, query, inner, pool), pool))
    (reference, reference_pool), (vectorized, vectorized_pool) = runs
    assert vectorized.result.rows == reference.result.rows
    assert vectorized.metrics == reference.metrics
    for field in fields(ExecutionMetrics):
        assert type(getattr(vectorized.metrics, field.name)) is int, field.name
    assert (vectorized.left_info, vectorized.right_info) == (
        reference.left_info,
        reference.right_info,
    )
    if capacity is not None:
        assert vectorized_pool.calls == reference_pool.calls
        assert vectorized_pool.snapshot()["pages"] == reference_pool.snapshot()["pages"]
        for calls in vectorized_pool.calls:
            assert all(type(key) is int for key in calls)
