"""Local access-path selection.

Each local DBS chooses its own plans (local autonomy!).  The rules here
are deliberately simple and *deterministic*, because the paper's query
classification (§4.1) works by predicting, from globally visible
information, which access method a local system will "most likely"
employ — classification and optimizer must agree for the per-class cost
models to be homogeneous.

Unary rules (first match wins):

1. a clustered index whose column has a bounded sargable range
   → clustered index scan;
2. a non-clustered index whose column has a bounded sargable range with
   estimated selectivity below :data:`NONCLUSTERED_SELECTIVITY_LIMIT`
   → non-clustered index scan (the cheapest-selectivity index wins);
3. otherwise → sequential scan.

Join rules:

1. both join columns carry clustered indexes → sort-merge join (inputs
   already sorted);
2. one operand's join column carries an index and the other operand's
   estimated intermediate is below :data:`INLJ_OUTER_FRACTION` of the
   indexed table's cardinality → index nested-loop join probing it;
3. otherwise → hash join (all joins in this workload are equijoins).

Rule 2 is the only join rule that reads statistics: an operand's
estimated intermediate is computed only when the other operand's join
column carries an index.  A join over index-less tables — every join of
shipped intermediates — is planned without touching
:attr:`Table.statistics`, so it never triggers a lazy ``analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .access import (
    UnaryExecution,
    clustered_index_scan,
    nonclustered_index_scan,
    seq_scan,
)
from .buffer import BufferPool
from .index import Index, IndexKind
from .joins import (
    JoinExecution,
    hash_join,
    index_nested_loop_join,
    nested_loop_join,
    sort_merge_join,
)
from .predicate import Comparison, KeyRange, extract_key_range
from .query import JoinQuery, SelectQuery
from .table import Table

#: A non-clustered index is only worth using below this selectivity.
NONCLUSTERED_SELECTIVITY_LIMIT = 0.15

#: INLJ wins when the outer intermediate is at most this fraction of the
#: indexed (inner) table's cardinality.
INLJ_OUTER_FRACTION = 0.10


@dataclass(frozen=True)
class UnaryPlan:
    """Chosen access path for a unary query."""

    method: str
    index: Optional[Index] = None

    def execute(
        self, table: Table, query: SelectQuery, pool: BufferPool | None = None
    ) -> UnaryExecution:
        if self.method == "seq_scan":
            return seq_scan(table, query, pool)
        if self.method == "clustered_index_scan":
            assert self.index is not None
            return clustered_index_scan(table, self.index, query, pool)
        if self.method == "nonclustered_index_scan":
            assert self.index is not None
            return nonclustered_index_scan(table, self.index, query, pool)
        raise ValueError(f"unknown unary method {self.method!r}")


@dataclass(frozen=True)
class JoinPlan:
    """Chosen join strategy.

    ``swapped`` records that the planner flipped the operands so the
    indexed table became the inner of an index nested-loop join.
    """

    method: str
    inner_index: Optional[Index] = None
    swapped: bool = False

    def execute(
        self,
        left: Table,
        right: Table,
        query: JoinQuery,
        pool: BufferPool | None = None,
    ) -> JoinExecution:
        if self.swapped:
            left, right, query = _swap(left, right, query)
        if self.method == "hash_join":
            return hash_join(left, right, query, pool)
        if self.method == "sort_merge_join":
            return sort_merge_join(left, right, query, pool)
        if self.method == "nested_loop_join":
            return nested_loop_join(left, right, query, pool)
        if self.method == "index_nested_loop_join":
            assert self.inner_index is not None
            return index_nested_loop_join(left, right, query, self.inner_index, pool)
        raise ValueError(f"unknown join method {self.method!r}")


def _swap(left: Table, right: Table, query: JoinQuery):
    """Mirror a join query, preserving the original output column order."""
    columns = query.output_columns(left.schema, right.schema)
    mirrored = JoinQuery(
        query.right,
        query.left,
        query.right_column,
        query.left_column,
        columns,
        query.right_predicate,
        query.left_predicate,
    )
    return right, left, mirrored


def _selectivity_for_range(table: Table, key_range: KeyRange, column: str) -> float:
    """Estimated selectivity of a bounded sargable *key_range* on *column*."""
    stats = table.statistics
    if key_range.is_point:
        return Comparison(column, "=", key_range.low).selectivity(stats)
    selectivity = 1.0
    if key_range.low is not None:
        op = ">=" if key_range.low_inclusive else ">"
        selectivity *= Comparison(column, op, key_range.low).selectivity(stats)
    if key_range.high is not None:
        op = "<=" if key_range.high_inclusive else "<"
        selectivity *= Comparison(column, op, key_range.high).selectivity(stats)
    return selectivity


def choose_unary_plan(
    table: Table, indexes: Sequence[Index], query: SelectQuery
) -> UnaryPlan:
    """Pick the access path for *query* over *table*."""
    clustered_candidates = []
    nonclustered_candidates = []
    for index in indexes:
        key_range, _ = extract_key_range(query.predicate, index.column_name)
        if key_range is None or not key_range.is_bounded:
            continue
        selectivity = _selectivity_for_range(table, key_range, index.column_name)
        if index.kind is IndexKind.CLUSTERED:
            clustered_candidates.append((selectivity, index))
        elif selectivity <= NONCLUSTERED_SELECTIVITY_LIMIT:
            nonclustered_candidates.append((selectivity, index))
    if clustered_candidates:
        _, best = min(clustered_candidates, key=lambda pair: pair[0])
        return UnaryPlan("clustered_index_scan", best)
    if nonclustered_candidates:
        _, best = min(nonclustered_candidates, key=lambda pair: pair[0])
        return UnaryPlan("nonclustered_index_scan", best)
    return UnaryPlan("seq_scan")


def _estimated_intermediate(table: Table, predicate) -> float:
    """Estimated rows surviving a local selection."""
    return table.cardinality * predicate.selectivity(table.statistics)


def choose_join_plan(
    left: Table,
    right: Table,
    left_indexes: Sequence[Index],
    right_indexes: Sequence[Index],
    query: JoinQuery,
) -> JoinPlan:
    """Pick the join strategy for *query* over (*left*, *right*)."""
    left_join_index = _index_on(left_indexes, query.left_column)
    right_join_index = _index_on(right_indexes, query.right_column)

    if (
        left_join_index is not None
        and right_join_index is not None
        and left_join_index.kind is IndexKind.CLUSTERED
        and right_join_index.kind is IndexKind.CLUSTERED
    ):
        return JoinPlan("sort_merge_join")

    if (
        right_join_index is not None
        and _estimated_intermediate(left, query.left_predicate)
        <= INLJ_OUTER_FRACTION * right.cardinality
    ):
        return JoinPlan("index_nested_loop_join", right_join_index)
    if (
        left_join_index is not None
        and _estimated_intermediate(right, query.right_predicate)
        <= INLJ_OUTER_FRACTION * left.cardinality
    ):
        return JoinPlan("index_nested_loop_join", left_join_index, swapped=True)
    return JoinPlan("hash_join")


def _index_on(indexes: Sequence[Index], column: str) -> Optional[Index]:
    """The best index on *column*: clustered preferred over non-clustered."""
    matches = [i for i in indexes if i.column_name == column]
    if not matches:
        return None
    clustered = [i for i in matches if i.kind is IndexKind.CLUSTERED]
    return clustered[0] if clustered else matches[0]
