"""Every inter-site plan returns the right rows, and reads no statistics.

The oracle: for a drawn two-site join, *each* candidate the global
optimizer enumerates (:meth:`GlobalQueryOptimizer.plans`) is executed
through :meth:`MDBSServer.execute`, on pool-less and on pooled sites,
and its row multiset must equal a nested-loop join over the base tables.
Operands may share a table name (``R1`` at both sites), local selections
may be empty, and the output is a column subset or all of both operands.

The shipped intermediates are loaded as temp tables without statistics,
and the join over them reads none.  So each execution must leave every
site exactly as a reference execution whose ``create_temp_table`` still
analyzes: the same step seconds, the same join ``ExecutionMetrics`` and
plan, the same clock, noise-RNG state and buffer-pool snapshot.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import CostModelBuilder
from repro.core.classification import G1, G3
from repro.engine.index import Index, IndexKind
from repro.engine.optimizer import choose_join_plan
from repro.engine.predicate import And, Comparison, TRUE
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.engine.query import JoinQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.server import MDBSServer
from repro.obs.quality import AccuracyTracker
from repro.workload import TableSpec, WorkloadSpec, make_site
from repro.workload.tablegen import COLUMN_NAMES

from ..engine.reference import filter_rows


SITES = ("site_a", "site_b")
TABLES = ("R1", "R2", "R3")
#: Join columns with few enough distinct values that joins match.
JOIN_COLUMNS = ("a4", "a6", "a8")
BUFFER_PAGES = 24


def workload(seed: int) -> WorkloadSpec:
    """The ``tiny_workload`` fixture's shape (tests/conftest.py)."""
    return WorkloadSpec(
        tables=(
            TableSpec("R1", 400),
            TableSpec("R2", 800),
            TableSpec("R3", 1200, clustered_index_on="a2"),
        ),
        seed=seed,
    )


def universe(buffer_pages, models=None):
    """(server, {name: site}) over two sites; trains G1/G3 unless given."""
    server = MDBSServer(accuracy=AccuracyTracker())
    sites = {}
    for name, profile, seed in zip(SITES, (ORACLE_LIKE, DB2_LIKE), (2, 3)):
        site = make_site(
            name, profile=profile, workload=workload(seed), seed=seed + 40,
            buffer_pages=buffer_pages,
        )
        sites[name] = site
        server.register_agent(MDBSAgent(site.database))
        if models is None:
            builder = CostModelBuilder(site.database)
            for query_class, count in ((G1, 60), (G3, 60)):
                queries = site.generator.queries_for(query_class, count)
                outcome = builder.build(query_class, queries, algorithm="iupma")
                server.store_cost_model(name, outcome.model)
        else:
            for model in models[name]:
                server.store_cost_model(name, model)
    return server, sites


@pytest.fixture(scope="module")
def universes():
    """A pool-less and a pooled universe over the same tables and models."""
    plain = universe(None)
    models = {
        name: [plain[0].catalog.registry.active_model(name, c.label) for c in (G1, G3)]
        for name in SITES
    }
    return {"pool-less": plain, "pooled": universe(BUFFER_PAGES, models)}


# -- strategies ---------------------------------------------------------------


comparisons = st.builds(
    Comparison,
    st.sampled_from(COLUMN_NAMES),
    st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    st.integers(-5, 12_000),
)
predicates = st.one_of(
    st.just(TRUE),
    comparisons,
    st.builds(And, comparisons, comparisons),
    st.just(Comparison("a3", "<", 0)),  # an empty local result
)


@st.composite
def global_joins(draw):
    left_site = draw(st.sampled_from(SITES))
    right_site = draw(st.sampled_from(SITES))
    left_table = draw(st.sampled_from(TABLES))
    right_table = draw(
        st.sampled_from(
            [t for t in TABLES if (right_site, t) != (left_site, left_table)]
        )
    )
    columns = ()
    if left_table != right_table:
        qualified = [f"{t}.{c}" for t in (left_table, right_table) for c in COLUMN_NAMES]
        columns = draw(
            st.one_of(
                st.just(()),
                st.lists(st.sampled_from(qualified), min_size=1, max_size=5, unique=True),
            )
        )
    return GlobalJoinQuery(
        left_site, left_table, right_site, right_table,
        draw(st.sampled_from(JOIN_COLUMNS)), draw(st.sampled_from(JOIN_COLUMNS)),
        tuple(columns),
        left_predicate=draw(predicates),
        right_predicate=draw(predicates),
    )


# -- references -----------------------------------------------------------------


def nested_loop(sites, query):
    """The join's rows, computed tuple by tuple over the base tables."""
    left = sites[query.left_site].database.catalog.table(query.left_table)
    right = sites[query.right_site].database.catalog.table(query.right_table)
    lj = left.schema.position(query.left_join_column)
    rj = right.schema.position(query.right_join_column)
    picks = []
    for table, _, column in (c.partition(".") for c in query.columns):
        side = 0 if table == query.left_table else 1
        picks.append((side, (left, right)[side].schema.position(column)))
    right_rows = filter_rows(right, query.right_predicate)
    out = []
    for lrow in filter_rows(left, query.left_predicate):
        for rrow in right_rows:
            if lrow[lj] == rrow[rj]:
                pair = (lrow, rrow)
                out.append(
                    tuple(pair[o][p] for o, p in picks) if picks else lrow + rrow
                )
    return out


def analyzing(create_temp_table):
    """``create_temp_table`` as it was: statistics computed on every load."""

    def create_and_analyze(agent, name, *args):
        create_temp_table(agent, name, *args)
        agent.database.catalog.table(name).analyze()

    return create_and_analyze


def execute(server, query, plan, create_temp_table=None):
    """Run *plan*; (execution, join QueryResult, Table.analyze calls)."""
    results = []
    analyzed = []
    agent_execute, table_analyze = MDBSAgent.execute, Table.analyze

    def recording_execute(agent, q):
        results.append(agent_execute(agent, q))
        return results[-1]

    def counting_analyze(table, *args, **kwargs):
        analyzed.append(table.name)
        return table_analyze(table, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MDBSAgent, "execute", recording_execute)
        patch.setattr(Table, "analyze", counting_analyze)
        if create_temp_table is not None:
            patch.setattr(MDBSAgent, "create_temp_table", create_temp_table)
        execution = server.execute(query, plan)
    return execution, results[-1], analyzed


def site_states(sites):
    """Clock, noise-RNG state and pool snapshot of every site."""
    return {name: site.database.save_state() for name, site in sites.items()}


# -- the oracle -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(query=global_joins())
def test_every_plan_returns_the_nested_loop_rows_and_reads_no_statistics(
    universes, query
):
    expected = Counter(nested_loop(universes["pool-less"][1], query))
    names = query.columns or tuple(
        f"{t}.{c}" for t in (query.left_table, query.right_table) for c in COLUMN_NAMES
    )
    for server, sites in universes.values():
        plans = server.optimizer.plans(query)
        assert {plan.join_site for plan in plans} == {"left", "right"}
        for plan in plans:
            before = site_states(sites)
            execution, join, analyzed = execute(server, query, plan)
            after = site_states(sites)
            assert Counter(execution.rows) == expected
            assert execution.column_names == names
            assert analyzed == []

            for name, site in sites.items():
                site.database.restore_state(before[name])
            reference, reference_join, _ = execute(
                server, query, plan, analyzing(MDBSAgent.create_temp_table)
            )
            assert execution.steps == reference.steps
            assert (join.plan, join.metrics) == (reference_join.plan, reference_join.metrics)
            assert site_states(sites) == after
            assert reference.rows == execution.rows


# -- exact guards ---------------------------------------------------------------


def test_execute_makes_no_analyze_call_over_analyzed_base_tables(universes):
    """Base tables already carry statistics; the shipped temp tables get none."""
    query = GlobalJoinQuery(
        "site_a", "R2", "site_b", "R1", "a4", "a4",
        left_predicate=Comparison("a3", "<", 500),
    )
    for server, _ in universes.values():
        for plan in server.optimizer.plans(query):
            _, _, analyzed = execute(server, query, plan)
            assert analyzed == []


class _StatisticsRaise(Table):
    @property
    def statistics(self):
        raise AssertionError(f"statistics of {self.name} were read")


def _table(name: str, rows: int, cls=Table) -> Table:
    table = cls(TableSchema(name, [Column("k", DataType.INT), Column("v", DataType.INT)]))
    table.bulk_load([(i % 7, i) for i in range(rows)])
    return table


def test_index_less_join_is_planned_without_statistics():
    left, right = _table("l", 50, _StatisticsRaise), _table("r", 70, _StatisticsRaise)
    plan = choose_join_plan(left, right, (), (), JoinQuery("l", "r", "k", "k"))
    assert plan.method == "hash_join"


@pytest.mark.parametrize("outer_rows, method", [(20, "index_nested_loop_join"), (90, "hash_join")])
def test_rule_2_reads_only_the_outer_operand_s_statistics(outer_rows, method):
    """The indexed inner's own statistics stay unread either way."""
    left, right = _table("l", outer_rows), _table("r", 300, _StatisticsRaise)
    index = Index("r_k", right, "k", IndexKind.NONCLUSTERED)
    plan = choose_join_plan(left, right, (), (index,), JoinQuery("l", "r", "k", "k"))
    assert plan.method == method  # INLJ iff outer <= 10% of the inner's 300 rows
