"""A query object's run is reused while the catalog says it is current — invisibly.

:class:`~repro.engine.database.KeptRuns` charges a repeating query
object's last :class:`QueryRun` again instead of running the query
again, for as long as :meth:`LocalDatabase.is_current` holds.  Its two
callers are :meth:`ProbingQuery.observe`, which keeps its run from the
first observation, and :meth:`MDBSAgent.execute`, which keeps a query's
run from its second execution.
Everything observable must be what running the query every time gives:
each cost, the result, the clock, the noise generator, the buffer pool,
the work counters and every metric.  Each test below drives a database
through one of the callers beside a twin that calls
``charge(run(query))`` — which never reuses a run — applies the same
catalog changes to both, and requires equality after every step.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.builder import CostModelBuilder
from repro.core.classification import G1, G3
from repro.core.probing import ProbingCostEstimator, ProbingQuery
from repro.engine.database import LocalDatabase
from repro.engine.errors import CatalogError
from repro.engine.predicate import Comparison
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType
from repro.env import dynamic_uniform_environment
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.probing_service import ProbingService
from repro.mdbs.server import MDBSServer
from repro.serving import ServingConfig, ServingFrontEnd
from repro.workload import TableSpec, WorkloadSpec, make_site as make_workload_site


COLUMNS = [Column("a", DataType.INT), Column("b", DataType.INT), Column("c", DataType.INT)]

PROBES = {
    "select": SelectQuery("t1", ("a",), Comparison("a", "<=", 495)),
    "join": JoinQuery("t1", "t2", "b", "b", ("t1.a", "t2.c"), Comparison("a", "<", 300)),
}

#: The two callers that keep runs.
CALLERS = ("probe", "agent")


def rows(seed: int, count: int) -> list[tuple[int, int, int]]:
    gen = np.random.default_rng(seed)
    return [
        (int(gen.integers(0, 1000)), int(gen.integers(0, 100)), int(gen.integers(0, 10)))
        for _ in range(count)
    ]


def make_site(buffer_pages: int | None = None) -> LocalDatabase:
    """The shared small fixture's shape, with noise and moving contention."""
    db = LocalDatabase(
        "reuse_db",
        environment=dynamic_uniform_environment(seed=5),
        noise_sigma=0.05,
        seed=9,
        buffer_pages=buffer_pages,
    )
    db.create_table("t1", COLUMNS, rows(3, 240))
    db.create_table("t2", COLUMNS, rows(4, 160))
    db.create_table("t3", COLUMNS, rows(5, 120))
    db.create_index("t1_a", "t1", "a")
    db.create_index("t2_b", "t2", "b", clustered=True)
    db.analyze()
    return db


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except CatalogError as exc:
        return (type(exc).__name__, str(exc))


def state(db: LocalDatabase) -> tuple:
    saved = db.save_state()
    return (saved["time"], saved["rng"], saved["buffer"])


class Twins:
    """A site executing *query* through a caller that keeps runs, and its
    run-every-time twin, each with its registry."""

    def __init__(self, query, caller: str = "probe", buffer_pages: int | None = None) -> None:
        self.keeping, self.running = make_site(buffer_pages), make_site(buffer_pages)
        self.registries = (obs.MetricsRegistry(), obs.MetricsRegistry())
        self.query = query
        self.caller = caller
        # An agent on each side, so both read the same statistics for
        # their default probes.
        agents = MDBSAgent(self.keeping), MDBSAgent(self.running)
        if caller == "probe":
            probe = ProbingQuery(self.keeping, query)
            self.kept = probe._runs
            self.call = probe.observe
        else:
            self.kept = agents[0].runs
            self.call = lambda: agents[0].execute(query)
        #: Runs of *query* on the keeping side, and its last charge.
        self.runs = 0
        #: Executions before the keeping side holds a run of *query*.
        self.first_kept = 1 if caller == "probe" else 2
        self.charged = None
        run, charge = self.keeping.run, self.keeping.charge

        def counted(q):
            self.runs += q is query
            return run(q)

        def recorded(r):
            self.charged = charge(r)
            return self.charged

        self.keeping.run, self.keeping.charge = counted, recorded

    def both(self, action) -> tuple:
        """Apply *action* to each database under that database's registry."""
        results = []
        for db, registry in zip((self.keeping, self.running), self.registries):
            previous = obs.set_registry(registry)
            try:
                results.append(outcome(lambda: action(db)))
            finally:
                obs.set_registry(previous)
        return tuple(results)

    def execute(self):
        def keep_or_run(db):
            if db is self.running:
                return seen(db.charge(db.run(self.query)))
            returned = self.call()
            charged = self.charged
            assert charged.query is self.query
            if self.caller == "agent":
                assert returned is charged
                returned = returned.elapsed
            assert returned == charged.elapsed
            return seen(charged)

        kept, ran = self.both(keep_or_run)
        assert kept == ran
        assert state(self.keeping) == state(self.running)

    def keep(self) -> int:
        """Execute until the keeping side holds a run; the runs so far."""
        for _ in range(self.first_kept):
            self.execute()
        assert len(self.kept) == 1
        return self.runs

    def assert_same_metrics(self) -> None:
        assert self.registries[0].snapshot() == self.registries[1].snapshot()


def seen(result) -> tuple:
    """Everything a caller sees of one execution."""
    return (
        result.elapsed,
        result.breakdown,
        result.contention_level,
        result.started_at,
        result.query,
        result.plan,
        result.infos,
        result.metrics,
        result.result.column_names,
        result.result.rows,
    )


# -- the catalog changes a probe must notice -----------------------------------


def _insert(db, arg):
    db.insert("t1", (arg % 1000, arg % 100, arg % 10))


def _bulk_load(db, arg):
    db.catalog.table("t1").bulk_load(rows(arg, 1 + arg % 30))


def _cluster(db, arg):
    db.create_index("t1_clu", "t1", ("a", "b")[arg % 2], clustered=True)


def _add_index(db, arg):
    db.create_index(f"t1_i{arg % 3}", "t1", ("a", "b", "c")[arg % 3])


def _drop_index(db, arg):
    names = sorted(index.name for index in db.catalog.indexes_for("t1"))
    if names:
        db.catalog.drop_index(names[arg % len(names)])


def _analyze(db, arg):
    db.analyze()


def _drop(db, arg):
    db.catalog.drop_table("t1")


def _recreate(db, arg):
    if db.catalog.has_table("t1"):
        db.catalog.drop_table("t1")
    db.create_table("t1", COLUMNS, rows(arg, 200 + arg % 80))


def _temp_join(db, arg):
    db.create_table("tmp", COLUMNS, rows(arg, 40))
    try:
        db.execute(JoinQuery("tmp", "t3", "c", "c", ("tmp.a", "t3.b")))
    finally:
        db.catalog.drop_table("tmp")


def _fork(db, arg):
    fork = LocalDatabase("fork", seed=arg)
    db.catalog.fork_into(fork.catalog)
    fork.insert("t1", (1, 2, 3))
    fork.create_index("fork_c", "t1", "c")
    fork.analyze()


def _advance(db, arg):
    db.environment.advance(float(arg))


MUTATIONS = {
    "insert": _insert,
    "bulk_load": _bulk_load,
    "cluster_on": _cluster,
    "add_index": _add_index,
    "drop_index": _drop_index,
    "analyze": _analyze,
    "drop": _drop,
    "recreate": _recreate,
    "temp_join": _temp_join,
    "fork": _fork,
    "advance": _advance,
}

steps = st.lists(
    st.tuples(st.sampled_from(["execute", "execute", *MUTATIONS]), st.integers(0, 500)),
    max_size=16,
)


def walk(twins: Twins, steps) -> None:
    """Execute and mutate both sides step by step, equal after every step."""
    twins.execute()
    for name, arg in steps:
        if name == "execute":
            twins.execute()
        else:
            mutation = MUTATIONS[name]
            first, second = twins.both(lambda db: mutation(db, arg))
            assert first == second
    twins.execute()
    twins.assert_same_metrics()


@pytest.mark.parametrize("probe_name", sorted(PROBES))
@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_observe_equals_executing_every_time(probe_name, steps):
    walk(Twins(PROBES[probe_name], "probe"), steps)


@pytest.mark.parametrize("query_name", sorted(PROBES))
@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_agent_execute_equals_running_every_time(query_name, steps):
    walk(Twins(PROBES[query_name], "agent"), steps)


def unchanged_site(caller: str) -> Twins:
    twins = Twins(PROBES["select"], caller)
    # Statistics left stale: the first run analyzes t1 lazily, which
    # bumps its version — the run must record the version after that.
    twins.both(lambda db: _insert(db, 1))
    for _ in range(230):
        twins.execute()
    assert len(twins.kept) == 1
    twins.assert_same_metrics()
    return twins


def test_unchanged_site_runs_the_probe_once():
    assert unchanged_site("probe").runs == 1


def test_a_served_query_is_kept_from_its_second_execution():
    assert unchanged_site("agent").runs == 2


def test_a_recreated_table_is_a_new_table_whatever_the_versions_say():
    for caller in CALLERS:
        twins = Twins(PROBES["select"], caller)
        runs = twins.keep()
        old = twins.keeping.catalog.table("t1")
        version = old.version  # as the kept run recorded it, after the run
        for db in (twins.keeping, twins.running):
            _recreate(db, 3)
            db.catalog.table("t1").analyze()
            db.catalog.table("t1").version = version
        old.version = version
        twins.execute()
        assert twins.runs == runs + 1, caller


def test_a_table_dropped_and_added_back_has_lost_its_indexes():
    for caller in CALLERS:
        twins = Twins(PROBES["select"], caller)
        runs = twins.keep()
        for db in (twins.keeping, twins.running):
            table = db.catalog.table("t1")
            db.catalog.drop_table("t1")
            db.catalog.add_table(table)
        twins.execute()
        assert twins.runs == runs + 1, caller


@pytest.mark.parametrize("probe_name", sorted(PROBES))
def test_every_change_to_a_read_table_reruns(probe_name):
    """``insert``, ``bulk_load``, ``create_index`` (plain and dropped
    again), ``analyze``, and drop plus re-create each force a re-run."""
    for caller in CALLERS:
        twins = Twins(PROBES[probe_name], caller)
        twins.keep()
        for name in ("insert", "bulk_load", "add_index", "drop_index", "analyze", "recreate"):
            runs = twins.runs
            twins.both(lambda db: MUTATIONS[name](db, 7))
            twins.execute()
            assert twins.runs == runs + 1, (caller, name)
        runs = twins.runs
        twins.both(lambda db: _fork(db, 7))
        twins.both(lambda db: _temp_join(db, 7))
        twins.execute()
        assert twins.runs == runs, caller  # neither touched a table the query reads
        twins.assert_same_metrics()


def test_pooled_site_never_reuses():
    """A pooled site's runs are never current, so a probe or an agent
    there runs every time and keeps nothing."""
    for caller in CALLERS:
        twins = Twins(PROBES["select"], caller, buffer_pages=4)
        for step in range(12):
            twins.execute()
            if step % 4 == 3:
                twins.both(lambda db: _temp_join(db, step))
        assert twins.runs == 12, caller
        assert len(twins.kept) == 0, caller
        assert twins.keeping.buffer_pool.snapshot() == twins.running.buffer_pool.snapshot()
        twins.assert_same_metrics()


def test_an_entry_dies_with_its_query_object():
    """What a kept run holds does not refer back to its query object."""
    db = make_site()
    agent = MDBSAgent(db)
    queries = [SelectQuery("t1", ("a",), Comparison("a", "<", 10 * i)) for i in range(50)]
    for query in queries:
        agent.execute(query)
    assert len(agent.runs) == 0  # executed once: marked, nothing kept
    for query in queries:
        agent.execute(query)
    assert len(agent.runs) == 50
    del queries, query
    gc.collect()
    assert len(agent.runs) == 0
    assert not agent.runs._queries
    # A query object dropped without a collection goes too.
    agent.execute(SelectQuery("t2", ("b",)))
    assert not agent.runs._queries


def test_runs_are_kept_per_object_not_per_value_or_text():
    agent = MDBSAgent(make_site())
    query = PROBES["select"]
    twin = SelectQuery(query.table, query.columns, query.predicate)
    assert twin == query and twin is not query
    for q in (query, query, twin):
        agent.execute(q)
    assert len(agent.runs) == 1  # an equal object is not the kept one
    agent.execute(twin)
    assert len(agent.runs) == 2
    for _ in range(3):
        agent.execute("select a from t1 where a <= 495")
    assert len(agent.runs) == 2  # parsed afresh each call: nothing to keep


@pytest.mark.parametrize(
    "query",
    [
        "select a from t1 where a < 100",
        "select * from t2 where b = 7",
        "select a, c from t1 where a >= 10 and a < 900 order by c limit 5",
        "select t1.a, t2.c from t1 join t2 on t1.b = t2.b where t1.a < 300",
        "select * from t2 join t3 on t2.c = t3.c where t3.a > 800",
    ],
)
def test_execute_is_charge_of_run(query):
    executed, split = make_site(), make_site()
    for _ in range(3):
        a = executed.execute(query)
        b = split.charge(split.run(query))
        assert a.query == b.query
        assert a.result.column_names == b.result.column_names
        assert a.result.tuple_length == b.result.tuple_length
        assert a.result.rows == b.result.rows
        assert a.metrics == b.metrics
        assert a.breakdown == b.breakdown
        assert a.plan == b.plan
        assert a.infos == b.infos
        assert a.contention_level == b.contention_level
        assert a.started_at == b.started_at
        assert state(executed) == state(split)


class RunningProbe:
    """A probe that runs on every call — what ``observe`` must equal."""

    def __init__(self, database, query) -> None:
        self.database = database
        self.query = query

    def observe(self) -> float:
        return self.database.charge(self.database.run(self.query)).elapsed


@pytest.mark.parametrize("calibrated", [False, True])
def test_dropped_probe_table_degrades_as_when_executing(calibrated):
    readings, states = [], []
    for probe_class in (ProbingQuery, RunningProbe):
        db = make_site()
        agent = MDBSAgent(db, probe=probe_class(db, PROBES["select"]))
        if calibrated:
            agent.estimator = ProbingCostEstimator()
            agent.estimator.calibrate(agent.probe, agent.monitor, samples=20)
        service = ProbingService({db.name: agent})
        seen = [service.probe(db.name) for _ in range(3)]
        db.catalog.drop_table("t1")
        seen += [service.probe(db.name) for _ in range(2)]
        _recreate(db, 11)
        seen += [service.probe(db.name) for _ in range(2)]
        readings.append(seen)
        states.append(state(db))
    reused, executed = readings
    assert reused == executed
    assert states[0] == states[1]
    expected = "estimated" if calibrated else "last_known"
    assert [r.source for r in reused] == ["observed"] * 3 + [expected] * 2 + ["observed"] * 2


# -- a served plan's selections ---------------------------------------------------


SITES = ("site_a", "site_b")


def universe(models=None):
    """(server, {name: database}) over two small sites; trains G1/G3 unless given."""
    server = MDBSServer(probe_ttl=1e9)
    databases = {}
    for name, profile, seed in zip(SITES, (ORACLE_LIKE, DB2_LIKE), (2, 3)):
        spec = WorkloadSpec(
            tables=(
                TableSpec("R1", 400),
                TableSpec("R2", 800),
                TableSpec("R3", 1200, clustered_index_on="a2"),
            ),
            seed=seed,
        )
        site = make_workload_site(
            name, profile=profile, environment_kind="uniform", workload=spec, seed=seed + 40
        )
        databases[name] = site.database
        server.register_agent(MDBSAgent(site.database))
        if models is None:
            builder = CostModelBuilder(site.database)
            for query_class in (G1, G3):
                queries = site.generator.queries_for(query_class, 60)
                server.store_cost_model(name, builder.build(query_class, queries).model)
        else:
            for model in models[name]:
                server.store_cost_model(name, model)
    return server, databases


class RunEveryTime:
    """An agent's executor that never reuses a run."""

    def __init__(self, database: LocalDatabase) -> None:
        self.database = database

    def execute(self, query):
        return self.database.charge(self.database.run(query))


def test_a_served_join_is_the_same_with_and_without_kept_runs():
    trained, _ = universe()
    models = {
        name: [trained.catalog.registry.active_model(name, c.label) for c in (G1, G3)]
        for name in SITES
    }
    queries = [
        GlobalJoinQuery("site_a", "R1", "site_b", "R2", "a4", "a4", ("R1.a1", "R2.a2")),
        GlobalJoinQuery(
            "site_b", "R3", "site_a", "R2", "a4", "a4", (),
            left_predicate=Comparison("a3", "<", 5000),
            right_predicate=Comparison("a7", ">", 200),
        ),
    ]
    stream = [queries[i % 2] for i in range(12)]
    served, runs = [], []
    for keep in (True, False):
        server, databases = universe(models)
        if not keep:
            for agent in server.agents.values():
                agent.runs = RunEveryTime(agent.database)
        count = [0]
        for database in databases.values():
            run = database.run

            def counted(query, run=run):
                count[0] += isinstance(query, SelectQuery)
                return run(query)

            database.run = counted
        with ServingFrontEnd(server, ServingConfig(plan_cache=True)) as frontend:
            tickets = frontend.serve(stream)
        assert all(ticket.ok for ticket in tickets)
        served.append((
            [(t.plan_source, t.execution.rows, t.execution.steps) for t in tickets],
            [state(database) for database in databases.values()],
        ))
        runs.append(count[0])
    assert served[0] == served[1]
    # Kept, each plan's two selections run at its first two requests;
    # else at every request.  Each site's probe is a selection too, kept
    # from its first observation on both sides, and runs once.
    probes = len(SITES)
    assert runs == [2 * 2 * len(queries) + probes, 2 * len(stream) + probes]
