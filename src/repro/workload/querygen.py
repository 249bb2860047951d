"""Random query generation per query class.

Sample and test queries are drawn the way the static method prescribes:
random operand tables, random projections, and range predicates whose
constants are chosen to hit a target selectivity spread — wide for
scan-based classes (so result sizes span the Figures 4–9 x-axis), narrow
for index-based classes (so the index stays "usable").

Every generated query is verified against
:func:`repro.core.classification.classify` (rejection sampling), so a
sample drawn for class G2 really is a G2 sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.classification import QueryClass, classify
from ..engine.database import LocalDatabase
from ..engine.errors import EngineError
from ..engine.predicate import And, Comparison, Predicate, TRUE
from ..engine.query import JoinQuery, Query, SelectQuery
from ..engine.table import Table


class GenerationError(EngineError):
    """The generator could not produce a query of the requested class."""


@dataclass(frozen=True)
class SelectivityRange:
    """Target selectivity interval for generated predicates."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0.0 < self.low <= self.high <= 1.0:
            raise ValueError("need 0 < low <= high <= 1")

    def draw(self, rng: np.random.Generator) -> float:
        # Log-uniform: spreads result sizes over orders of magnitude,
        # like the paper's test-query scatter.
        return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))


#: Per-class selectivity targets for the driving predicate.
CLASS_SELECTIVITY = {
    "G1": SelectivityRange(0.01, 0.95),
    "G2": SelectivityRange(0.003, 0.10),
    "GC": SelectivityRange(0.01, 0.60),
    "G3": SelectivityRange(0.05, 0.80),
    "G4": SelectivityRange(0.005, 0.06),
    "G5": SelectivityRange(0.05, 0.80),
    "G6": SelectivityRange(0.05, 0.80),
}

#: Columns never indexed by the standard workload — safe for G1/G3
#: predicates and join keys.
UNINDEXED_COLUMNS = ("a3", "a5", "a6", "a7", "a8")

#: The standard workload's non-clustered-index column and join column.
INDEXED_COLUMN = "a1"
JOIN_COLUMN = "a4"
CLUSTERED_COLUMN = "a2"

#: Draws per requested query before the generator gives up on a class.
MAX_ATTEMPTS = 200


class QueryGenerator:
    """Draws random queries of a requested class from one local database."""

    def __init__(self, database: LocalDatabase, seed: int = 0) -> None:
        self.database = database
        self.rng = np.random.default_rng(seed)

    # -- public API --------------------------------------------------------

    def queries_for(
        self,
        query_class: QueryClass,
        count: int,
        tables: Sequence[str] | None = None,
    ) -> list[Query]:
        """Draw *count* queries that classify into *query_class*."""
        makers: dict[str, Callable[[list[Table]], Query]] = {
            "G1": self._make_g1,
            "G2": self._make_g2,
            "GC": self._make_gc,
            "G3": self._make_g3,
            "G4": self._make_g4,
            "G5": self._make_g5,
        }
        if query_class.label not in makers:
            raise GenerationError(f"no generator for class {query_class.label}")
        pool = self._table_pool(query_class, tables)
        maker = makers[query_class.label]
        out: list[Query] = []
        for _ in range(count):
            out.append(self._rejection_sample(maker, pool, query_class))
        return out

    # -- helpers -------------------------------------------------------------

    def _table_pool(
        self, query_class: QueryClass, names: Sequence[str] | None
    ) -> list[Table]:
        catalog = self.database.catalog
        if names is None:
            tables = list(catalog.tables())
        else:
            tables = [catalog.table(n) for n in names]
        if query_class.label == "GC":
            tables = [t for t in tables if t.clustered_on == CLUSTERED_COLUMN]
        if query_class.label == "G5":
            tables = [t for t in tables if t.clustered_on == CLUSTERED_COLUMN]
        if query_class.label == "G2":
            tables = [
                t
                for t in tables
                if catalog.index_on(t.name, INDEXED_COLUMN) is not None
            ]
        minimum = 2 if query_class.family == "join" else 1
        if len(tables) < minimum:
            raise GenerationError(
                f"workload has no suitable tables for class {query_class.label}"
            )
        return tables

    def _rejection_sample(self, maker, pool, query_class) -> Query:
        for _ in range(MAX_ATTEMPTS):
            query = maker(pool)
            if classify(self.database, query) == query_class:
                return query
        raise GenerationError(
            f"could not generate a {query_class.label} query in "
            f"{MAX_ATTEMPTS} attempts"
        )

    def _pick_table(self, pool: list[Table]) -> Table:
        return pool[int(self.rng.integers(0, len(pool)))]

    def _pick_two_tables(self, pool: list[Table]) -> tuple[Table, Table]:
        i, j = self.rng.choice(len(pool), size=2, replace=False)
        return pool[int(i)], pool[int(j)]

    def _projection(self, table: Table) -> tuple[str, ...]:
        names = table.schema.column_names
        k = int(self.rng.integers(1, len(names) + 1))
        chosen = self.rng.choice(len(names), size=k, replace=False)
        return tuple(names[int(i)] for i in sorted(chosen))

    def _range_predicate(
        self, table: Table, column: str, selectivity: float
    ) -> Predicate:
        """A one- or two-sided range predicate targeting *selectivity*."""
        stats = table.statistics.column(column)
        lo, hi = stats.minimum, stats.maximum
        if lo is None or hi is None or hi <= lo:
            return TRUE
        span = hi - lo
        if self.rng.random() < 0.5:
            # One-sided: col <= cut or col >= cut.
            if self.rng.random() < 0.5:
                cut = lo + selectivity * span
                return Comparison(column, "<=", int(round(cut)))
            cut = hi - selectivity * span
            return Comparison(column, ">=", int(round(cut)))
        # Two-sided window of width selectivity * span at a random spot.
        width = selectivity * span
        start = lo + self.rng.random() * max(0.0, span - width)
        return And(
            Comparison(column, ">=", int(round(start))),
            Comparison(column, "<=", int(round(start + width))),
        )

    def _unindexed_column(self) -> str:
        return UNINDEXED_COLUMNS[int(self.rng.integers(0, len(UNINDEXED_COLUMNS)))]

    # -- unary classes -------------------------------------------------------

    def _make_g1(self, pool: list[Table]) -> SelectQuery:
        """Unary, no usable index: predicates on unindexed columns only."""
        table = self._pick_table(pool)
        sel = CLASS_SELECTIVITY["G1"].draw(self.rng)
        predicate = self._range_predicate(table, self._unindexed_column(), sel)
        if self.rng.random() < 0.4:
            extra = self._range_predicate(
                table, self._unindexed_column(), float(self.rng.uniform(0.3, 0.95))
            )
            predicate = And(predicate, extra)
        return SelectQuery(table.name, self._projection(table), predicate)

    def _make_g2(self, pool: list[Table]) -> SelectQuery:
        """Unary, usable non-clustered range index on a1."""
        table = self._pick_table(pool)
        sel = CLASS_SELECTIVITY["G2"].draw(self.rng)
        predicate = self._range_predicate(table, INDEXED_COLUMN, sel)
        if self.rng.random() < 0.4:
            residual = self._range_predicate(
                table, self._unindexed_column(), float(self.rng.uniform(0.3, 0.95))
            )
            predicate = And(predicate, residual)
        return SelectQuery(table.name, self._projection(table), predicate)

    def _make_gc(self, pool: list[Table]) -> SelectQuery:
        """Unary over a table clustered on a2, range on the clustered key."""
        table = self._pick_table(pool)
        sel = CLASS_SELECTIVITY["GC"].draw(self.rng)
        predicate = self._range_predicate(table, CLUSTERED_COLUMN, sel)
        return SelectQuery(table.name, self._projection(table), predicate)

    # -- join classes ------------------------------------------------------------

    def _join_projection(self, left: Table, right: Table) -> tuple[str, ...]:
        cols = []
        for table in (left, right):
            names = table.schema.column_names
            k = int(self.rng.integers(1, 4))
            chosen = self.rng.choice(len(names), size=k, replace=False)
            cols.extend(f"{table.name}.{names[int(i)]}" for i in sorted(chosen))
        return tuple(cols)

    def _make_g3(self, pool: list[Table]) -> JoinQuery:
        """Join on the unindexed a4 column (hash join)."""
        left, right = self._pick_two_tables(pool)
        sel_range = CLASS_SELECTIVITY["G3"]
        return JoinQuery(
            left.name,
            right.name,
            JOIN_COLUMN,
            JOIN_COLUMN,
            self._join_projection(left, right),
            self._range_predicate(left, self._unindexed_column(), sel_range.draw(self.rng)),
            self._range_predicate(right, self._unindexed_column(), sel_range.draw(self.rng)),
        )

    def _make_g4(self, pool: list[Table]) -> JoinQuery:
        """Index nested-loop join: selective outer, indexed inner (a1)."""
        a, b = self._pick_two_tables(pool)
        outer, inner = (a, b) if a.cardinality <= b.cardinality else (b, a)
        # Keep the estimated outer intermediate below the optimizer's
        # INLJ threshold for the inner's cardinality.
        max_sel = 0.08 * inner.cardinality / max(1, outer.cardinality)
        sel_range = CLASS_SELECTIVITY["G4"]
        sel = min(sel_range.draw(self.rng), max(1e-4, max_sel))
        return JoinQuery(
            outer.name,
            inner.name,
            INDEXED_COLUMN,
            INDEXED_COLUMN,
            self._join_projection(outer, inner),
            self._range_predicate(outer, self._unindexed_column(), sel),
            TRUE,
        )

    def _make_g5(self, pool: list[Table]) -> JoinQuery:
        """Sort-merge join over operands clustered on the join column (a2)."""
        left, right = self._pick_two_tables(pool)
        sel_range = CLASS_SELECTIVITY["G5"]
        return JoinQuery(
            left.name,
            right.name,
            CLUSTERED_COLUMN,
            CLUSTERED_COLUMN,
            self._join_projection(left, right),
            self._range_predicate(left, self._unindexed_column(), sel_range.draw(self.rng)),
            self._range_predicate(right, self._unindexed_column(), sel_range.draw(self.rng)),
        )
