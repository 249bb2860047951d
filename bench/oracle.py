"""The benchmark's own reference results: plain Python over the base tables.

Nothing here calls the engine's operators or its predicate evaluator, so
a wrong-rows bug in either shows as a digest mismatch.  Results compare
as ``(cardinality, sha256 of the sorted rows)``.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Sequence

_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

Digest = tuple[int, str]


def digest(rows: Sequence[Sequence[Any]]) -> Digest:
    ordered = sorted(tuple(row) for row in rows)
    return len(ordered), hashlib.sha256(repr(ordered).encode()).hexdigest()


def _holds(predicate, row: Sequence[Any], positions: dict[str, int]) -> bool:
    """Evaluate a repro predicate tree on *row* by structure, not by its methods."""
    kind = type(predicate).__name__
    if kind == "Comparison":
        return _OPS[predicate.op](row[positions[predicate.column]], predicate.value)
    if kind == "And":
        return _holds(predicate.left, row, positions) and _holds(
            predicate.right, row, positions
        )
    if kind == "Or":
        return _holds(predicate.left, row, positions) or _holds(
            predicate.right, row, positions
        )
    if kind == "Not":
        return not _holds(predicate.operand, row, positions)
    if kind == "TruePredicate":
        return True
    raise TypeError(f"oracle cannot evaluate {kind}")


def _positions(table) -> dict[str, int]:
    return {name: i for i, name in enumerate(table.schema.column_names)}


def _selected(table, predicate) -> list:
    positions = _positions(table)
    return [row for row in table.rows() if _holds(predicate, row, positions)]


def reference_select(table, query) -> Digest:
    """Filter-and-project of a ``SelectQuery`` over *table*'s rows."""
    positions = _positions(table)
    wanted = [positions[c] for c in (query.columns or table.schema.column_names)]
    return digest(
        [tuple(row[i] for i in wanted) for row in _selected(table, query.predicate)]
    )


def join_pairs(left, right, left_predicate, right_predicate) -> int:
    """Row pairs a nested-loop reference join would compare."""
    return len(_selected(left, left_predicate)) * len(_selected(right, right_predicate))


def reference_join(
    left,
    right,
    left_column: str,
    right_column: str,
    columns: Sequence[str],
    left_predicate,
    right_predicate,
) -> Digest:
    """Nested-loop equijoin of two tables with per-operand selections.

    *columns* are ``table.column`` names; empty selects every column of
    both operands, left first.  Serves local ``JoinQuery`` objects and
    two-site ``GlobalJoinQuery`` objects alike (the caller passes the
    operand tables).
    """
    lpos, rpos = _positions(left), _positions(right)
    if not columns:
        columns = [f"{left.name}.{c}" for c in lpos] + [f"{right.name}.{c}" for c in rpos]
    picks = []
    for qualified in columns:
        table_name, _, column = qualified.partition(".")
        picks.append((0, lpos[column]) if table_name == left.name else (1, rpos[column]))
    li, ri = lpos[left_column], rpos[right_column]
    right_rows = _selected(right, right_predicate)
    out = []
    for lrow in _selected(left, left_predicate):
        key = lrow[li]
        for rrow in right_rows:
            if rrow[ri] == key:
                pair = (lrow, rrow)
                out.append(tuple(pair[side][i] for side, i in picks))
    return digest(out)


def _sql_predicate(predicate, table: str) -> str | None:
    kind = type(predicate).__name__
    if kind == "Comparison":
        return f"{table}.{predicate.column} {predicate.op} {predicate.value!r}"
    if kind in ("And", "Or"):
        return (
            f"({_sql_predicate(predicate.left, table)} {kind.upper()} "
            f"{_sql_predicate(predicate.right, table)})"
        )
    if kind == "Not":
        return f"(NOT {_sql_predicate(predicate.operand, table)})"
    return None  # TRUE: no WHERE term


def sql_text(query) -> str:
    """SQL text the engine parses back into an equal query.

    ``str(SelectQuery)`` round-trips; ``str(JoinQuery)`` leaves predicate
    columns unqualified, which the parser rejects as ambiguous whenever
    both operands have the column (always, on the R1..R12 schema), so
    joins are rendered here with qualified names.
    """
    if hasattr(query, "table"):
        return str(query)
    sql = (
        f"SELECT {', '.join(query.columns) or '*'} FROM {query.left} JOIN {query.right} "
        f"ON {query.left}.{query.left_column} = {query.right}.{query.right_column}"
    )
    terms = [
        term
        for term in (
            _sql_predicate(query.left_predicate, query.left),
            _sql_predicate(query.right_predicate, query.right),
        )
        if term
    ]
    return sql + (" WHERE " + " AND ".join(terms) if terms else "")
