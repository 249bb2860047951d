"""Query classification: grouping local queries into homogeneous classes.

Inherited from the static query sampling method (§4.1): "we group local
queries on a local database system into classes based on their potential
access methods to be employed [...] a similar performance behavior is
shared among the queries in the class and can be described by a common
cost model."

The classification rules only use information available at the global
level — query shape, operand tables, index definitions, and catalog
statistics — mirrored here by calling the same deterministic access-path
rules the local optimizer applies (:mod:`repro.engine.optimizer`).

The paper's three representative classes carry their original labels:

* **G1** — unary queries without usable indexes (sequential scan);
* **G2** — unary queries with usable non-clustered indexes for ranges;
* **G3** — join queries without usable indexes (hash join here).

The full taxonomy also covers clustered-index scans and the other join
strategies, so every executable query lands in exactly one class.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.database import LocalDatabase
from ..engine.query import JoinQuery, Query, SelectQuery
from .variables import JOIN_VARIABLES, UNARY_VARIABLES, VariableSet


@dataclass(frozen=True)
class QueryClass:
    """One homogeneous query class."""

    label: str
    family: str  # "unary" | "join"
    access_method: str
    description: str

    @property
    def variables(self) -> VariableSet:
        return UNARY_VARIABLES if self.family == "unary" else JOIN_VARIABLES


G1 = QueryClass(
    "G1", "unary", "seq_scan", "unary queries without usable indexes"
)
G2 = QueryClass(
    "G2",
    "unary",
    "nonclustered_index_scan",
    "unary queries with usable non-clustered indexes for ranges",
)
GC = QueryClass(
    "GC", "unary", "clustered_index_scan", "unary queries using a clustered index"
)
G3 = QueryClass(
    "G3", "join", "hash_join", "join queries without usable indexes (hash join)"
)
G4 = QueryClass(
    "G4",
    "join",
    "index_nested_loop_join",
    "join queries probing an index on a join column",
)
G5 = QueryClass(
    "G5",
    "join",
    "sort_merge_join",
    "join queries over operands clustered on the join columns",
)
G6 = QueryClass(
    "G6", "join", "nested_loop_join", "join queries evaluated by nested loops"
)

ALL_CLASSES = (G1, G2, GC, G3, G4, G5, G6)

_BY_METHOD = {(c.family, c.access_method): c for c in ALL_CLASSES}


def class_for_method(family: str, access_method: str) -> QueryClass:
    """The class whose queries use *access_method* in *family*."""
    try:
        return _BY_METHOD[(family, access_method)]
    except KeyError:
        raise KeyError(
            f"no query class for {family}/{access_method}"
        ) from None


def classify(database: LocalDatabase, query: Query | str) -> QueryClass:
    """Classify *query* for *database* by its predicted access method.

    Uses the same rule-based access-path choice the local optimizer
    applies; since the rules depend only on globally visible facts
    (schemas, index definitions, statistics), the global level can make
    the identical prediction — which is what makes the classification
    usable despite local autonomy.
    """
    if isinstance(query, str):
        query = database.parse(query)
    if not isinstance(query, (SelectQuery, JoinQuery)):
        raise TypeError(f"unsupported query type: {type(query).__name__}")
    plan = database.plan(query)
    family = "unary" if isinstance(query, SelectQuery) else "join"
    return class_for_method(family, plan.method)
