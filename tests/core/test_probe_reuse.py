"""A probe's run is reused while the catalog says it is current — invisibly.

:meth:`ProbingQuery.observe` charges its last :class:`QueryRun` again
instead of re-running the probe, for as long as
:meth:`LocalDatabase.is_current` holds.  Everything observable must be
what executing the probe every time gives: each cost, the clock, the
noise generator, the buffer pool, the work counters and every metric.  Each test below
drives a database that probes through ``observe`` beside a twin that
calls ``execute(probe.query)``, applies the same catalog changes to both,
and requires equality after every step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.probing import ProbingCostEstimator, ProbingQuery
from repro.engine.database import LocalDatabase
from repro.engine.errors import CatalogError
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType
from repro.env import dynamic_uniform_environment
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.probing_service import ProbingService


COLUMNS = [Column("a", DataType.INT), Column("b", DataType.INT), Column("c", DataType.INT)]

PROBES = {
    "select": SelectQuery("t1", ("a",), Comparison("a", "<=", 495)),
    "join": JoinQuery("t1", "t2", "b", "b", ("t1.a", "t2.c"), Comparison("a", "<", 300)),
}


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
    """A probing site and its execute-every-time twin, each with its registry."""

    def __init__(self, probe_query, buffer_pages: int | None = None) -> None:
        self.reusing, self.executing = make_site(buffer_pages), make_site(buffer_pages)
        self.registries = (obs.MetricsRegistry(), obs.MetricsRegistry())
        self.probe = ProbingQuery(self.reusing, probe_query)
        #: Runs of the probe query on the reusing side.
        self.runs = 0
        run = self.reusing.run

        def counted(query):
            self.runs += query is probe_query
            return run(query)

        self.reusing.run = counted

    def both(self, action) -> tuple:
        """Apply *action* to each database under that database's registry."""
        results = []
        for db, registry in zip((self.reusing, self.executing), self.registries):
            previous = obs.set_registry(registry)
            try:
                results.append(outcome(lambda: action(db)))
            finally:
                obs.set_registry(previous)
        return tuple(results)

    def observe(self):
        def observe_or_execute(db):
            if db is self.reusing:
                return self.probe.observe(), self.probe._run.metrics
            result = db.execute(self.probe.query)
            return result.elapsed, result.metrics

        # Same cost and same work counters as executing every time.
        reused, executed = self.both(observe_or_execute)
        assert reused == executed
        assert state(self.reusing) == state(self.executing)

    def assert_same_metrics(self) -> None:
        assert self.registries[0].snapshot() == self.registries[1].snapshot()


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
    st.tuples(st.sampled_from(["observe", "observe", *MUTATIONS]), st.integers(0, 500)),
    max_size=16,
)


@pytest.mark.parametrize("probe_name", sorted(PROBES))
@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_observe_equals_executing_every_time(probe_name, steps):
    twins = Twins(PROBES[probe_name])
    twins.observe()
    for name, arg in steps:
        if name == "observe":
            twins.observe()
        else:
            mutation = MUTATIONS[name]
            first, second = twins.both(lambda db: mutation(db, arg))
            assert first == second
    twins.observe()
    twins.assert_same_metrics()


def test_unchanged_site_runs_the_probe_once():
    twins = Twins(PROBES["select"])
    # Statistics left stale: the first run analyzes t1 lazily, which
    # bumps its version — the run must record the version after that.
    twins.both(lambda db: _insert(db, 1))
    for _ in range(230):
        twins.observe()
    assert twins.runs == 1
    twins.assert_same_metrics()


def test_a_recreated_table_is_a_new_table_whatever_the_versions_say():
    twins = Twins(PROBES["select"])
    twins.observe()
    (old, version), = twins.probe._run.tables
    for db in (twins.reusing, twins.executing):
        _recreate(db, 3)
        db.catalog.table("t1").analyze()
        db.catalog.table("t1").version = version
    old.version = version
    twins.observe()
    assert twins.runs == 2


def test_a_table_dropped_and_added_back_has_lost_its_indexes():
    twins = Twins(PROBES["select"])
    twins.observe()
    for db in (twins.reusing, twins.executing):
        table = db.catalog.table("t1")
        db.catalog.drop_table("t1")
        db.catalog.add_table(table)
    twins.observe()
    assert twins.runs == 2


@pytest.mark.parametrize("probe_name", sorted(PROBES))
def test_every_change_to_a_read_table_reruns(probe_name):
    twins = Twins(PROBES[probe_name])
    twins.observe()
    for name in ("insert", "bulk_load", "add_index", "drop_index", "analyze", "recreate"):
        runs = twins.runs
        twins.both(lambda db: MUTATIONS[name](db, 7))
        twins.observe()
        assert twins.runs == runs + 1, name
    runs = twins.runs
    twins.both(lambda db: _fork(db, 7))
    twins.both(lambda db: _temp_join(db, 7))
    twins.observe()
    assert twins.runs == runs  # neither touched a table the probe reads


def test_pooled_site_never_reuses():
    twins = Twins(PROBES["select"], buffer_pages=4)
    for step in range(12):
        twins.observe()
        if step % 4 == 3:
            twins.both(lambda db: _temp_join(db, step))
    assert twins.runs == 12
    assert twins.reusing.buffer_pool.snapshot() == twins.executing.buffer_pool.snapshot()
    twins.assert_same_metrics()


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


class ExecutingProbe:
    """A probe that executes on every call — what ``observe`` must equal."""

    def __init__(self, database, query) -> None:
        self.database = database
        self.query = query

    def observe(self) -> float:
        return self.database.execute(self.query).elapsed


@pytest.mark.parametrize("calibrated", [False, True])
def test_dropped_probe_table_degrades_as_when_executing(calibrated):
    readings, states = [], []
    for probe_class in (ProbingQuery, ExecutingProbe):
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
