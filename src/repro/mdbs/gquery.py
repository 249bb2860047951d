"""Global queries and their decomposition into local component queries.

A global user query joins tables that live at *different* sites.  The
global optimizer decomposes it into one local selection per site plus an
inter-site join, then decides where the join runs ("how to decompose a
global query into local queries and where to execute the local queries",
§1).  Single-site global queries pass straight through to the agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..engine.errors import QueryError
from ..engine.predicate import Predicate, TRUE
from ..engine.query import SelectQuery


@dataclass(frozen=True)
class GlobalJoinQuery:
    """An equijoin between tables at two (possibly different) sites.

    Output columns are ``table.column``-qualified names; an empty tuple
    selects all columns of both operands.  Two operands may share a
    table name (``R1`` at two sites); then only the empty tuple is
    allowed, since ``R1.a1`` could mean either operand.
    """

    left_site: str
    left_table: str
    right_site: str
    right_table: str
    left_join_column: str
    right_join_column: str
    columns: tuple[str, ...] = ()
    left_predicate: Predicate = field(default_factory=lambda: TRUE)
    right_predicate: Predicate = field(default_factory=lambda: TRUE)

    def __post_init__(self) -> None:
        if (self.left_site, self.left_table) == (self.right_site, self.right_table):
            raise QueryError("global self-joins are not supported")
        if self.columns and self.left_table == self.right_table:
            raise QueryError(
                f"both operands are named {self.left_table!r}, so a qualified "
                "output column cannot say which one it means; select all "
                "columns (columns=()) instead"
            )
        for qualified in self.columns:
            table, _, column = qualified.partition(".")
            if not column or table not in (self.left_table, self.right_table):
                raise QueryError(
                    f"output column {qualified!r} must be qualified with an "
                    "operand table name"
                )

    def requested_columns(self, side: str) -> tuple[str, ...]:
        """Unqualified output columns belonging to one operand."""
        table = self.left_table if side == "left" else self.right_table
        return tuple(
            c.partition(".")[2] for c in self.columns if c.partition(".")[0] == table
        )

    def __str__(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        return (
            f"SELECT {cols} FROM {self.left_site}:{self.left_table} JOIN "
            f"{self.right_site}:{self.right_table} ON "
            f"{self.left_table}.{self.left_join_column} = "
            f"{self.right_table}.{self.right_join_column}"
        )


@dataclass(frozen=True)
class ComponentQueries:
    """The local selections a global join decomposes into."""

    left: SelectQuery
    right: SelectQuery
    #: Positions of the join columns within each component's select list.
    left_join_position: int
    right_join_position: int


def decompose(
    query: GlobalJoinQuery,
    left_all_columns: Sequence[str],
    right_all_columns: Sequence[str],
) -> ComponentQueries:
    """Split a global join into its two local component selections.

    Each component projects the output columns requested from its table
    plus (always) its join column, and applies that operand's local
    selection — shipping only what the join and the final projection need.
    """

    def component(table, predicate, join_column, requested, all_columns):
        wanted = list(requested) if requested else list(all_columns)
        if join_column not in wanted:
            wanted.append(join_column)
        return SelectQuery(table, tuple(wanted), predicate), wanted.index(join_column)

    left_requested = query.requested_columns("left") if query.columns else ()
    right_requested = query.requested_columns("right") if query.columns else ()
    left_query, left_pos = component(
        query.left_table,
        query.left_predicate,
        query.left_join_column,
        left_requested,
        left_all_columns,
    )
    right_query, right_pos = component(
        query.right_table,
        query.right_predicate,
        query.right_join_column,
        right_requested,
        right_all_columns,
    )
    return ComponentQueries(
        left=left_query,
        right=right_query,
        left_join_position=left_pos,
        right_join_position=right_pos,
    )
