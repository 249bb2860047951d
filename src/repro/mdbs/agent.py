"""The MDBS agent: the per-site component of the multidatabase system.

Paper Figure 3 / §5: "Local queries are submitted to a local DBS via an
MDBS agent.  The MDBS agent provides a uniform relational ODBC interface
for the global server.  It also contains a load builder which generates
dynamic loads to simulate dynamic application environments", and "may
also have an environment monitor which collects system statistics used
for estimating the probing query costs".

The agent is the only path from the global level into a local DBS: it
executes queries, reports globally visible schema facts, runs the probing
query, and (given a calibrated estimator) estimates the probing cost
from monitor statistics instead of executing the probe.
"""

from __future__ import annotations

from typing import Any, Sequence

from .. import obs
from ..core.classification import QueryClass, classify
from ..core.probing import ProbingCostEstimator, ProbingQuery, default_probing_query
from ..engine.database import KeptRuns, LocalDatabase, QueryResult
from ..engine.query import Query
from ..engine.schema import Column
from ..engine.table import ResultTable
from ..engine.types import DataType
from ..env.loadbuilder import LoadBuilder
from ..env.monitor import EnvironmentMonitor
from .catalog import TableFacts


class MDBSAgent:
    """Uniform interface to one autonomous local database system."""

    def __init__(
        self,
        database: LocalDatabase,
        probe: ProbingQuery | None = None,
        estimator: ProbingCostEstimator | None = None,
    ) -> None:
        self.database = database
        self.load_builder = LoadBuilder(database.environment)
        self.monitor = EnvironmentMonitor(database.environment)
        self.probe = probe or default_probing_query(database)
        self.estimator = estimator
        #: The last run of each query object this agent serves, charged
        #: again while current — a cached plan's selections are not re-run.
        self.runs = KeptRuns(database)

    @property
    def site(self) -> str:
        return self.database.name

    # -- buffer-pool state (a qualitative variable) ------------------------

    def buffer_hit_rate(self) -> float | None:
        """The local pool's lifetime hit rate, or None without a pool."""
        pool = self.database.buffer_pool
        return pool.hit_rate if pool is not None else None

    def buffer_hit_state(self) -> str | None:
        """Qualitative cache state (``cold``/``warm``/``hot``), or None.

        Globally observable without breaching local autonomy: it derives
        from the agent's own executions, not from DBMS internals.  The
        server keys accuracy windows on it alongside the contention
        state when the site simulates a memory hierarchy.
        """
        pool = self.database.buffer_pool
        return pool.hit_state() if pool is not None else None

    # -- the "ODBC" surface ------------------------------------------------

    def execute(self, query: Query | str) -> QueryResult:
        """Run a local query and return rows + observed elapsed time.

        The work of a query object served before is charged again while
        the site's catalog keeps it current (:class:`KeptRuns`); the
        elapsed time is always charged afresh.
        """
        with obs.span("mdbs.agent.execute") as sp:
            if sp.recording:
                sp.set_attribute("site", self.site)
            result = self.runs.execute(query)
            if sp.recording:
                sp.set_attribute("simulated_seconds", result.elapsed)
        return result

    def classify(self, query: Query | str) -> QueryClass:
        """Predict the query class the local system will use."""
        return classify(self.database, query)

    # -- probing -------------------------------------------------------------

    def observed_probing_cost(self) -> float:
        """Execute the probing query; its cost gauges the contention level."""
        with obs.span("mdbs.probe") as sp:
            if sp.recording:
                sp.set_attributes(site=self.site, mode="observed")
            cost = self.probe.observe()
            if sp.recording:
                sp.set_attribute("probing_cost", cost)
        return cost

    def estimated_probing_cost(self) -> float:
        """Estimate the probing cost from system statistics (paper eq. (2)).

        Requires a calibrated :class:`ProbingCostEstimator`; cheaper than
        executing the probe, at the price of estimation error.
        """
        if self.estimator is None or not self.estimator.is_calibrated:
            raise RuntimeError(
                f"agent for {self.site} has no calibrated probing-cost estimator"
            )
        with obs.span("mdbs.probe") as sp:
            if sp.recording:
                sp.set_attributes(site=self.site, mode="estimated")
            cost = self.estimator.estimate(self.monitor.statistics())
            if sp.recording:
                sp.set_attribute("probing_cost", cost)
        return cost

    # -- globally visible schema facts -----------------------------------------

    def export_table_facts(self) -> list[TableFacts]:
        """Schema facts the global catalog is allowed to see."""
        facts = []
        catalog = self.database.catalog
        for table in catalog.tables():
            stats = table.statistics
            column_stats = {
                name: (cs.minimum, cs.maximum, cs.distinct_count)
                for name, cs in stats.columns.items()
            }
            indexed = {
                index.column_name: index.kind.value
                for index in catalog.indexes_for(table.name)
            }
            facts.append(
                TableFacts(
                    site=self.site,
                    name=table.name,
                    cardinality=table.cardinality,
                    tuple_length=table.tuple_length,
                    column_widths={
                        c.name: c.width for c in table.schema.columns
                    },
                    column_stats=column_stats,
                    indexed_columns=indexed,
                    clustered_on=table.clustered_on,
                )
            )
        return facts

    # -- temporary tables (for shipped intermediate results) ----------------------

    def create_temp_table(
        self,
        name: str,
        column_names: Sequence[str],
        column_widths: Sequence[int],
        rows: Sequence[Sequence[Any]] | ResultTable,
    ) -> None:
        """Materialize shipped rows as a local temporary table.

        *rows* is a sequence of row tuples or a shipped query result; a
        result is loaded by column where its columns allow it (see
        :meth:`Table.bulk_load`).  Incoming values are stored as-is;
        columns are typed from the first row (INT/FLOAT/STR), defaulting
        to FLOAT for empty shipments.

        A temp table carries no statistics.  Its only reader is the join
        over it, and a temp table has no index, so the local optimizer
        plans that join without reading any (see
        :func:`~repro.engine.optimizer.choose_join_plan`); computing them
        would cost a pass over every shipped column per request.  A
        caller that does read them gets them lazily from
        :attr:`Table.statistics`.
        """
        if self.database.catalog.has_table(name):
            self.drop_temp_table(name)
        first = rows[0] if len(rows) else None
        columns = []
        for i, (col, width) in enumerate(zip(column_names, column_widths)):
            dtype = DataType.FLOAT
            if first is not None:
                value = first[i]
                if isinstance(value, bool):
                    raise TypeError("boolean values are not supported")
                if isinstance(value, int):
                    dtype = DataType.INT
                elif isinstance(value, str):
                    dtype = DataType.STR
            columns.append(Column(col, dtype, width))
        self.database.create_table(name, columns, rows)

    def drop_temp_table(self, name: str) -> None:
        self.database.catalog.drop_table(name)
