"""Logical query representations: single-table selections and two-way joins.

The paper's workloads consist of *unary* queries (select/project over one
table) and *join* queries (two tables, equijoin, with optional local
selections on each operand).  These two shapes are what the query
classification of §4.1 — inherited from the static query sampling method
— operates over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import QueryError
from .predicate import Predicate, TRUE, map_columns
from .schema import TableSchema


@dataclass(frozen=True)
class SelectQuery:
    """``SELECT <columns> FROM <table> WHERE <predicate>
    [ORDER BY <columns>] [LIMIT <n>]``.

    An empty ``columns`` sequence means ``SELECT *``.  ``order_by``
    columns are (name, ascending) pairs; ``limit`` truncates the result
    after ordering.
    """

    table: str
    columns: tuple[str, ...] = ()
    predicate: Predicate = field(default_factory=lambda: TRUE)
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def __init__(
        self,
        table: str,
        columns: Sequence[str] = (),
        predicate: Predicate | None = None,
        order_by: Sequence[tuple[str, bool]] = (),
        limit: int | None = None,
    ) -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "predicate", predicate if predicate is not None else TRUE)
        object.__setattr__(self, "order_by", tuple(order_by))
        object.__setattr__(self, "limit", limit)
        if limit is not None and limit < 0:
            raise QueryError("LIMIT must be non-negative")

    def output_columns(self, schema: TableSchema) -> tuple[str, ...]:
        """Resolve the projection list (``*`` expands to all columns)."""
        return self.columns if self.columns else schema.column_names

    def validate(self, schema: TableSchema) -> None:
        """Check all referenced columns exist in *schema*."""
        if schema.name != self.table:
            raise QueryError(f"query targets {self.table}, schema is {schema.name}")
        for col in self.columns:
            if col not in schema:
                raise QueryError(f"unknown column in select list: {col}")
        for col, _ in self.order_by:
            if col not in schema:
                raise QueryError(f"unknown ORDER BY column: {col}")
        self.predicate.validate(schema)

    def __str__(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        sql = f"SELECT {cols} FROM {self.table}"
        if str(self.predicate) != "TRUE":
            sql += f" WHERE {self.predicate}"
        if self.order_by:
            parts = [
                f"{col}" + ("" if ascending else " DESC")
                for col, ascending in self.order_by
            ]
            sql += " ORDER BY " + ", ".join(parts)
        if self.limit is not None:
            sql += f" LIMIT {self.limit}"
        return sql


@dataclass(frozen=True)
class JoinQuery:
    """A two-way equijoin with optional per-operand selections.

    ``SELECT <columns> FROM <left> JOIN <right>
      ON left.<left_column> = right.<right_column>
      WHERE <left_predicate on left> AND <right_predicate on right>``

    Output columns are qualified ``table.column`` names; an empty sequence
    selects every column of both operands.  Per-operand predicates are the
    *local selections* applied before (or during) the join — their reduced
    operands are the paper's "intermediate tables" (Table 3).
    """

    left: str
    right: str
    left_column: str
    right_column: str
    columns: tuple[str, ...] = ()
    left_predicate: Predicate = field(default_factory=lambda: TRUE)
    right_predicate: Predicate = field(default_factory=lambda: TRUE)

    def __init__(
        self,
        left: str,
        right: str,
        left_column: str,
        right_column: str,
        columns: Sequence[str] = (),
        left_predicate: Predicate | None = None,
        right_predicate: Predicate | None = None,
    ) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left_column", left_column)
        object.__setattr__(self, "right_column", right_column)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(
            self, "left_predicate", left_predicate if left_predicate is not None else TRUE
        )
        object.__setattr__(
            self,
            "right_predicate",
            right_predicate if right_predicate is not None else TRUE,
        )
        if left == right:
            raise QueryError("self-joins are not supported")

    def output_columns(
        self, left_schema: TableSchema, right_schema: TableSchema
    ) -> tuple[str, ...]:
        """Resolve qualified output columns."""
        if self.columns:
            return self.columns
        return tuple(
            [f"{self.left}.{c}" for c in left_schema.column_names]
            + [f"{self.right}.{c}" for c in right_schema.column_names]
        )

    def validate(self, left_schema: TableSchema, right_schema: TableSchema) -> None:
        """Check join columns, projections, and per-operand predicates."""
        if left_schema.name != self.left or right_schema.name != self.right:
            raise QueryError("schemas do not match the query's operand tables")
        if self.left_column not in left_schema:
            raise QueryError(f"unknown join column {self.left}.{self.left_column}")
        if self.right_column not in right_schema:
            raise QueryError(f"unknown join column {self.right}.{self.right_column}")
        lt = left_schema.column(self.left_column).dtype
        rt = right_schema.column(self.right_column).dtype
        if not lt.is_comparable_with(rt):
            raise QueryError(
                f"join columns have incomparable types: {lt.value} vs {rt.value}"
            )
        self.left_predicate.validate(left_schema)
        self.right_predicate.validate(right_schema)
        for qualified in self.columns:
            table, _, column = qualified.partition(".")
            if not column:
                raise QueryError(f"join select list must be qualified: {qualified!r}")
            if table == self.left:
                if column not in left_schema:
                    raise QueryError(f"unknown column {qualified}")
            elif table == self.right:
                if column not in right_schema:
                    raise QueryError(f"unknown column {qualified}")
            else:
                raise QueryError(f"column {qualified} names an unjoined table")

    def __str__(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        sql = (
            f"SELECT {cols} FROM {self.left} JOIN {self.right} "
            f"ON {self.left}.{self.left_column} = {self.right}.{self.right_column}"
        )
        # Predicate columns are qualified: both operands may have the
        # column, and the parser must hand each term back to its side.
        wheres = [
            str(map_columns(predicate, lambda column: f"{table}.{column}"))
            for table, predicate in (
                (self.left, self.left_predicate),
                (self.right, self.right_predicate),
            )
            if str(predicate) != "TRUE"
        ]
        if wheres:
            sql += " WHERE " + " AND ".join(wheres)
        return sql


#: Either query shape.
Query = SelectQuery | JoinQuery
