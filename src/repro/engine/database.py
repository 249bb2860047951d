"""The local database system: DDL, DML, and timed query execution.

A :class:`LocalDatabase` bundles a catalog, a DBMS cost profile, and the
:class:`~repro.env.environment.Environment` it runs in.  Executing a
query is two steps.  :meth:`~LocalDatabase.run` (1) lets the local
optimizer pick a plan and (2) runs the plan to get both the result and
the physical work counters — a :class:`QueryRun`, which depends on the
catalog alone.  :meth:`~LocalDatabase.charge` (3) converts that work to
a simulated elapsed time under the contention level *at execution time*,
advancing the simulated clock.  The elapsed time is all the global level
ever observes — local cost constants stay hidden behind local autonomy,
which is precisely the problem the paper's method addresses.

Because only step (3) depends on the contention level, a caller that
executes the same query object again may charge its last run again for
as long as the catalog says that run is current: :class:`KeptRuns`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .. import obs
from ..env.environment import Environment, static_environment
from .access import UnaryExecution
from .buffer import DEFAULT_WINDOW, BufferPool
from .catalog import LocalCatalog
from .costing import ElapsedBreakdown, simulate_elapsed
from .errors import CatalogError
from .index import Index, IndexKind
from .joins import JoinExecution
from .metrics import AccessInfo, ExecutionMetrics
from .optimizer import JoinPlan, UnaryPlan, choose_join_plan, choose_unary_plan
from .pages import PageLayout
from .profiles import DBMSProfile, ORACLE_LIKE
from .query import Query, SelectQuery
from .schema import Column, TableSchema
from .sql import parse_query
from .table import ResultTable, Table


@dataclass
class QueryRun:
    """The work of one execution, before any of it is charged to the clock.

    Everything here is a function of the query and the catalog: plan,
    result, work counters and access facts.  *tables* holds each table
    the run read, with its :attr:`~repro.engine.table.Table.version`
    taken after the run (planning may analyze a table lazily).
    """

    query: Query
    result: ResultTable
    metrics: ExecutionMetrics
    plan: str
    infos: tuple[AccessInfo, ...]
    tables: tuple[tuple[Table, int], ...]


@dataclass
class QueryResult:
    """Everything one execution exposes to the caller."""

    query: Query
    result: ResultTable
    metrics: ExecutionMetrics
    breakdown: ElapsedBreakdown
    plan: str
    infos: tuple[AccessInfo, ...]
    contention_level: float
    started_at: float

    @property
    def elapsed(self) -> float:
        """Simulated elapsed time in seconds (what a stopwatch would show)."""
        return self.breakdown.elapsed

    @property
    def cardinality(self) -> int:
        return self.result.cardinality


class LocalDatabase:
    """One autonomous local DBS in the multidatabase system."""

    def __init__(
        self,
        name: str,
        profile: DBMSProfile = ORACLE_LIKE,
        environment: Environment | None = None,
        layout: PageLayout | None = None,
        noise_sigma: float = 0.05,
        seed: int = 0,
        buffer_pages: int | None = None,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        profile.validate()
        self.name = name
        self.profile = profile
        self.environment = environment or static_environment()
        self.layout = layout or PageLayout()
        self.noise_sigma = noise_sigma
        self.catalog = LocalCatalog()
        self._rng = np.random.default_rng(seed)
        #: Optional simulated memory hierarchy.  ``None`` (the default)
        #: keeps the classic statistical page accounting; a pool makes
        #: physical I/O depend on workload history (see buffer.py).
        self.buffer_pool: BufferPool | None = (
            BufferPool(capacity_pages=buffer_pages, window=DEFAULT_WINDOW)
            if buffer_pages is not None
            else None
        )

    # -- DDL / DML ---------------------------------------------------------

    def create_table(
        self, name: str, columns: Sequence[Column], rows: Iterable[Sequence[Any]] = ()
    ) -> Table:
        """Create a table and optionally bulk-load *rows*."""
        table = Table(TableSchema(name, columns), layout=self.layout)
        table.bulk_load(rows)
        self.catalog.add_table(table)
        return table

    def insert(self, table_name: str, row: Sequence[Any]) -> None:
        """Insert one row, keeping the table's clustering and indexes."""
        self.catalog.table(table_name).insert(row)
        self._after_new_rows(table_name)

    def bulk_load(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Load many rows (:meth:`Table.bulk_load`), keeping clustering and indexes.

        Returns the number of rows loaded.  A batch that fails
        validation loads nothing and leaves the indexes as they were.
        """
        loaded = self.catalog.table(table_name).bulk_load(rows)
        self._after_new_rows(table_name)
        return loaded

    def _after_new_rows(self, table_name: str) -> None:
        """Re-sort a clustered table, then rebuild the table's indexes.

        New rows land at the end of the heap; a clustered table must be
        sorted again on its key before its indexes, which name rows by
        position, are rebuilt.
        """
        table = self.catalog.table(table_name)
        if table.clustered_on is not None:
            table.cluster_on(table.clustered_on)
        self._rebuild_indexes(table_name)

    def create_index(
        self, index_name: str, table_name: str, column_name: str, clustered: bool = False
    ) -> Index:
        """Create an index; a clustered index physically re-sorts the table.

        Creating a clustered index changes row ids, so all other indexes
        on the table are rebuilt afterwards.  Only one clustered index per
        table is allowed.
        """
        table = self.catalog.table(table_name)
        if clustered:
            existing = [
                i
                for i in self.catalog.indexes_for(table_name)
                if i.kind is IndexKind.CLUSTERED
            ]
            if existing:
                raise CatalogError(
                    f"table {table_name} already has a clustered index "
                    f"({existing[0].name})"
                )
            table.cluster_on(column_name)
            self._rebuild_indexes(table_name)
        kind = IndexKind.CLUSTERED if clustered else IndexKind.NONCLUSTERED
        index = Index(index_name, table, column_name, kind)
        self.catalog.add_index(index)
        return index

    def _rebuild_indexes(self, table_name: str) -> None:
        table = self.catalog.table(table_name)
        for index in self.catalog.indexes_for(table_name):
            rebuilt = Index(index.name, table, index.column_name, index.kind)
            self.catalog.drop_index(index.name)
            self.catalog.add_index(rebuilt)

    def analyze(self) -> None:
        """Refresh statistics for every table."""
        for table in self.catalog.tables():
            table.analyze()

    # -- planning --------------------------------------------------------------

    def parse(self, sql: str) -> Query:
        """Parse SQL text against this database's schemas."""
        return parse_query(sql, self.catalog.schemas)

    def plan(self, query: Query | str) -> UnaryPlan | JoinPlan:
        """Let the local optimizer choose a plan (without executing)."""
        if isinstance(query, str):
            query = self.parse(query)
        if isinstance(query, SelectQuery):
            table = self.catalog.table(query.table)
            return choose_unary_plan(table, self.catalog.indexes_for(table.name), query)
        left = self.catalog.table(query.left)
        right = self.catalog.table(query.right)
        return choose_join_plan(
            left,
            right,
            self.catalog.indexes_for(left.name),
            self.catalog.indexes_for(right.name),
            query,
        )

    # -- execution --------------------------------------------------------------

    def execute(self, query: Query | str) -> QueryResult:
        """Execute *query*, returning result rows plus timing under load."""
        return self.charge(self.run(query))

    def run(self, query: Query | str) -> QueryRun:
        """Plan and run *query*: its result and the work it did.

        Reads neither the clock nor the noise generator, so the run can
        be charged (:meth:`charge`) afterwards — once, or again for as
        long as :meth:`is_current` holds.  With a buffer pool the run
        touches the pool: what it holds is part of the work.
        """
        if isinstance(query, str):
            query = self.parse(query)
        if isinstance(query, SelectQuery):
            plan = self.plan(query)
            assert isinstance(plan, UnaryPlan)
            table = self.catalog.table(query.table)
            execution: UnaryExecution = plan.execute(table, query, self.buffer_pool)
            infos: tuple[AccessInfo, ...] = (execution.info,)
            plan_desc = execution.info.method
            tables: tuple[tuple[Table, int], ...] = ((table, table.version),)
        else:
            plan = self.plan(query)
            assert isinstance(plan, JoinPlan)
            left = self.catalog.table(query.left)
            right = self.catalog.table(query.right)
            jexec: JoinExecution = plan.execute(left, right, query, self.buffer_pool)
            execution = jexec  # type: ignore[assignment]
            infos = (jexec.left_info, jexec.right_info)
            plan_desc = jexec.method
            tables = ((left, left.version), (right, right.version))
        return QueryRun(
            query=query,
            result=execution.result,
            metrics=execution.metrics,
            plan=plan_desc,
            infos=infos,
            tables=tables,
        )

    def charge(self, run: QueryRun) -> QueryResult:
        """Charge *run*'s work at the current contention level.

        Draws one noise value, converts the work to simulated elapsed
        time and advances the clock by it — all that makes one execution
        of the same work differ from another.  The work and its timing
        are the returned :class:`QueryResult`'s ``metrics`` and
        ``breakdown``; nothing else records them.
        """
        with obs.span("engine.execute") as sp:
            environment = self.environment
            started_at = environment.now
            level = environment.level()
            slowdown = environment.slowdown_model.slowdown(level)
            noise = self._noise()
            breakdown = simulate_elapsed(run.metrics, self.profile, slowdown, noise)
            environment.advance(breakdown.elapsed)
            if sp.recording:
                sp.set_attributes(
                    database=self.name,
                    plan=run.plan,
                    rows=run.result.cardinality,
                    pages_read=run.metrics.total_page_reads,
                    simulated_seconds=breakdown.elapsed,
                    contention_level=level,
                )
        return QueryResult(
            query=run.query,
            result=run.result,
            metrics=run.metrics,
            breakdown=breakdown,
            plan=run.plan,
            infos=run.infos,
            contention_level=level,
            started_at=started_at,
        )

    def is_current(self, run: QueryRun) -> bool:
        """Whether running *run*'s query now would do exactly *run*'s work.

        True when the site has no buffer pool — with one, a run's page
        reads depend on what the pool holds, and the run itself is how
        the pool's state gets into its cost — and every table the run
        read is still the catalog's table of that name, at the same
        version.  A table gone from the catalog raises the
        :class:`CatalogError` running the query would raise.
        """
        if self.buffer_pool is not None:
            return False
        table = self.catalog.table
        return all(table(t.name) is t and t.version == version for t, version in run.tables)

    def _noise(self) -> float:
        if self.noise_sigma == 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self.noise_sigma)))

    # -- simulation forking -------------------------------------------------

    def save_state(self) -> dict:
        """Capture (clock time, noise-RNG state) for a later rewind.

        Together with deterministic contention traces this lets an
        experiment execute alternative plans from the *identical* site
        state — the simulated analogue of re-running a measurement.
        """
        return {
            "time": self.environment.now,
            "rng": self._rng.bit_generator.state,
            "buffer": (
                self.buffer_pool.snapshot() if self.buffer_pool is not None else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Rewind to a state captured with :meth:`save_state`."""
        self.environment.clock.reset(state["time"])
        self._rng.bit_generator.state = state["rng"]
        if self.buffer_pool is not None and state.get("buffer") is not None:
            self.buffer_pool.restore(state["buffer"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalDatabase({self.name}, profile={self.profile.name}, "
            f"{len(self.catalog.table_names)} tables)"
        )


class KeptRuns:
    """The last run of each repeating query object, charged again while current.

    A run's work depends on its query and the catalog alone (see
    :class:`QueryRun`), so executing the same query *object* again need
    not run it again: :meth:`execute` charges the kept run
    (:meth:`LocalDatabase.charge`) for as long as
    :meth:`LocalDatabase.is_current` holds, and otherwise runs the query.
    Cost, clock, noise and metrics are what ``database.execute(query)``
    gives every time.

    A run is kept once its query object repeats: from the object's
    second execution on, or from its first for a query its owner
    executes again by design (:meth:`expect`).  A query executed once —
    a fresh plan's selection, a request's join — leaves only a weak
    marker, so no run is held for a query that is not executed again,
    however long its object lives.  Entries are keyed on the object's
    identity through a weak reference — never on its value or SQL text
    — and die with the object; the kept work does not refer to the
    query.  No run is current on a site with a buffer pool, so there
    nothing is kept.
    """

    def __init__(self, database: LocalDatabase) -> None:
        self.database = database
        queries: dict[int, _Entry] = {}
        self._queries = queries
        self._forget = lambda entry: queries.pop(entry.key, None)

    def __len__(self) -> int:
        """The number of runs kept."""
        return sum(entry.work is not None for entry in self._queries.values())

    def expect(self, query: Query) -> None:
        """Keep *query*'s run from its first execution on: its owner
        executes it again by design."""
        if id(query) not in self._queries:
            self._queries[id(query)] = _Entry(query, self._forget)

    def execute(self, query: Query | str) -> QueryResult:
        """Charge *query*'s kept run if it is current, else run it.

        SQL text is parsed into a new query object on every call, so it
        is executed and nothing is kept.
        """
        database = self.database
        if isinstance(query, str):
            return database.execute(query)
        entry = self._queries.get(id(query))
        if entry is not None and entry.work is not None:
            run = QueryRun(query, *entry.work)
            if database.is_current(run):
                return database.charge(run)
        run = database.run(query)
        if database.is_current(run):
            if entry is None:
                self._queries[id(query)] = _Entry(query, self._forget)
            else:
                entry.work = (run.result, run.metrics, run.plan, run.infos, run.tables)
        return database.charge(run)


class _Entry(weakref.ref):
    """A weak reference to a query object, under its ``id``, with the
    fields of its kept run but the query (``None`` until it repeats)."""

    __slots__ = ("key", "work")

    def __new__(cls, query: Query, callback) -> _Entry:
        self = super().__new__(cls, query, callback)
        self.key = id(query)
        self.work = None
        return self
