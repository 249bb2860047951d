"""The five workloads: set-up, one fixed-operation repetition, checks.

A repetition is a fixed operation list run from the *same simulated
state* (``LocalDatabase.save_state`` / ``restore_state``; the fleet
rebuilds its universes itself), so counts and simulated costs repeat
exactly and only the machine moves the wall clock.  ``seed`` feeds the
table and query generators only; the program sees generated inputs.

Timing covers the operations alone; output checks run after the clock
stops.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import CostModelBuilder
from repro.core.classification import G1, G2, G3, G4, G5, GC
from repro.core.validation import is_good, is_very_good, validate_model
from repro.engine.pages import PageLayout
from repro.engine.predicate import Comparison
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.experiments.config import ExperimentConfig, quick, tiny
from repro.loadgen.coordinator import Coordinator, default_loadgen_config
from repro.loadgen.worker import train_models
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.server import MDBSServer
from repro.serving import ServingConfig, ServingFrontEnd
from repro.workload.scenarios import make_site, make_two_site_universe
from repro.workload.tablegen import COLUMN_NAMES, paper_workload

from . import oracle
from .spec import MIN_REPS

#: Effectively-infinite probe TTL: one probing query per site, then cached.
PINNED_PROBE_TTL = 1e9
SERVING_TABLES = ("R1", "R2", "R3", "R4")
ALL_CLASSES = (G1, G2, GC, G3, G4, G5)
#: Join samples in ``derive`` draw from R1..R6 (the quick preset's choice;
#: two of them are clustered, which G5 needs).
DERIVE_JOIN_TABLES = tuple(f"R{i}" for i in range(1, 7))
#: Joins in ``engine_mix`` stay on the smaller tables (as the ``full``
#: experiment preset does): an unindexed join of R12 with R11 returns
#: millions of rows and would be the whole workload.
ENGINE_JOIN_TABLES = tuple(f"R{i}" for i in range(1, 9))
#: Row pairs the nested-loop reference may compare per sampled join.
ORACLE_PAIR_BUDGET = 400_000


@dataclass(frozen=True)
class Sizes:
    """Operation counts of one repetition (``standard``) or a smoke run."""

    smoke: bool
    hot_requests: int
    cold_requests: int
    fleet_shards: int
    fleet_rounds: int
    engine_scale: float
    engine_per_class: int
    engine_writes: int
    engine_write_rows: tuple[int, int]
    #: Query sets drawn per (site, class) in ``derive``; each is derived
    #: under both algorithms.
    derive_draws: int

    def config(self, seed: int) -> ExperimentConfig:
        return tiny(seed) if self.smoke else quick(seed)


#: Sized so a repetition takes 3-6 s on a 2-core box (see bench/README.md).
STANDARD = Sizes(
    smoke=False, hot_requests=3000, cold_requests=2000, fleet_shards=8,
    fleet_rounds=24, engine_scale=0.4, engine_per_class=90, engine_writes=60,
    engine_write_rows=(500, 5000), derive_draws=2,
)
SMOKE = Sizes(
    smoke=True, hot_requests=90, cold_requests=60, fleet_shards=2,
    fleet_rounds=10, engine_scale=0.02, engine_per_class=3, engine_writes=2,
    engine_write_rows=(50, 300), derive_draws=1,
)


@dataclass
class Rep:
    """What one repetition measured; simulated facts repeat exactly."""

    ops: int
    wall_s: float
    cpu_s: float
    latencies_ms: list[float]
    #: failed + rejected + timed-out ops, plus oracle mismatches.
    failed: int
    sim_cost_s: float
    #: Estimates checked, and how many were good / very good (fleet:
    #: sample-weighted, so fractional).
    est_n: float = 0.0
    est_good: float = 0.0
    est_verygood: float = 0.0
    recover_queries: float | None = None
    #: Deterministic facts a second run must reproduce exactly.
    counts: dict[str, float] = field(default_factory=dict)


def tail_percentile(samples: int) -> float:
    """Highest of p50/p75/p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    best = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if samples * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best


class Workload:
    """Set up once, then ``rep()`` any number of times, then ``close()``."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.config = sizes.config(seed)

    @property
    def ops_per_rep(self) -> int:
        raise NotImplementedError

    @property
    def tail_pct(self) -> float:
        return tail_percentile(self.ops_per_rep * MIN_REPS)

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and processes the set-up started."""

    def info(self) -> dict:
        """Sizes worth stating beside the numbers."""
        return {}

    def trace_extras(self, rep_wall_s: float) -> dict[str, float]:
        """Per-layer metrics only this workload can supply (traced runs)."""
        return {}


class _Timer:
    """Wall and CPU seconds of a block, and the latency of each op inside it."""

    def __enter__(self) -> "_Timer":
        self.latencies_ms: list[float] = []
        self._cpu = time.process_time()
        self._start = self._lap = time.perf_counter()
        return self

    def start_op(self) -> None:
        self._lap = time.perf_counter()

    def end_op(self) -> None:
        self.latencies_ms.append(1e3 * (time.perf_counter() - self._lap))

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.cpu_s = time.process_time() - self._cpu


# ---------------------------------------------------------------------------
# serve_hot / serve_cold
# ---------------------------------------------------------------------------


def _two_sites(config: ExperimentConfig):
    return make_two_site_universe(
        names=("site_a", "site_b"),
        profiles=(ORACLE_LIKE, DB2_LIKE),
        seeds=(config.seed + 81, config.seed + 82),
        scale=config.scale,
    )


def _serving_joins(config: ExperimentConfig, distinct: int = 6) -> list[GlobalJoinQuery]:
    """*distinct* structurally different two-site joins over R1..R4.

    The predicate constants are a fixed, evenly spaced set that the seed
    only deals out to the joins: which join gets which selectivity (and
    the data under it) changes with the seed, the work summed over the
    joins hardly does, so runs on different seeds stay comparable.
    """
    rng = np.random.default_rng(config.seed + 55)
    tables = list(SERVING_TABLES)
    left_cuts = rng.permutation(np.linspace(350, 850, distinct)).astype(int)
    right_cuts = rng.permutation(np.linspace(22000, 43000, distinct)).astype(int)
    queries = []
    for i in range(distinct):
        left = tables[i % len(tables)]
        others = [t for t in tables if t != left]
        right = others[int(rng.integers(0, len(others)))]
        sides = (("site_a", left), ("site_b", right))
        if i % 2:
            sides = (sides[1], sides[0])
        (left_site, left), (right_site, right) = sides
        queries.append(
            GlobalJoinQuery(
                left_site, left, right_site, right, "a4", "a4",
                (f"{left}.a1", f"{right}.a2"),
                left_predicate=Comparison("a3", "<", int(left_cuts[i])),
                right_predicate=Comparison("a7", "<", int(right_cuts[i])),
            )
        )
    return queries


class ServeWorkload(Workload):
    """Closed loop, one client: ``submit`` then ``ticket.wait`` per request."""

    def __init__(self, seed: int, sizes: Sizes, hot: bool) -> None:
        super().__init__(seed, sizes)
        self.hot = hot
        self.name = "serve_hot" if hot else "serve_cold"
        self.frontend: ServingFrontEnd | None = None

    @property
    def ops_per_rep(self) -> int:
        return self.sizes.hot_requests if self.hot else self.sizes.cold_requests

    def _train(self) -> dict:
        """Derive G1/G3 at both sites once; hand over the registry payload."""
        server = MDBSServer()
        for site in _two_sites(self.config):
            server.register_agent(MDBSAgent(site.database))
            builder = CostModelBuilder(site.database, config=self.config.builder)
            for query_class in (G1, G3):
                queries = site.generator.queries_for(
                    query_class, self.config.unary_train, tables=list(SERVING_TABLES)
                )
                outcome = builder.build(query_class, queries, algorithm="iupma")
                server.store_cost_model(site.name, outcome.model)
        return server.catalog.export_models()

    def setup(self) -> None:
        payload = self._train()
        # A fresh, identically seeded universe: serving starts from the
        # state every other run of this seed starts from.
        self.sites = _two_sites(self.config)
        server = MDBSServer(probe_ttl=PINNED_PROBE_TTL if self.hot else 0.0)
        for site in self.sites:
            server.register_agent(MDBSAgent(site.database))
        server.catalog.import_models(payload)
        self.queries = _serving_joins(self.config)
        self.stream = [i % len(self.queries) for i in range(self.ops_per_rep)]
        tables = {site.name: site.database.catalog for site in self.sites}
        self.expected = [
            oracle.reference_join(
                tables[q.left_site].table(q.left_table),
                tables[q.right_site].table(q.right_table),
                q.left_join_column, q.right_join_column, q.columns,
                q.left_predicate, q.right_predicate,
            )
            for q in self.queries
        ]
        self.frontend = ServingFrontEnd(
            server,
            ServingConfig(
                workers=1, queue_depth=64, admission_policy="block",
                plan_cache=self.hot,
            ),
        ).start()
        self.frontend.warm(self.queries)
        warm = self._serve(range(len(self.queries)))
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up pass failed its oracle check")
        self.state = [site.database.save_state() for site in self.sites]

    def _serve(self, stream) -> Rep:
        frontend = self.frontend
        tickets = []
        with _Timer() as timer:
            for index in stream:
                timer.start_op()
                ticket = frontend.submit(self.queries[index])
                ticket.wait()
                timer.end_op()
                tickets.append(ticket)
        rep = Rep(len(tickets), timer.wall_s, timer.cpu_s, timer.latencies_ms, 0, 0.0)
        for index, ticket in zip(stream, tickets):
            execution = ticket.execution
            if not ticket.ok or oracle.digest(execution.rows) != self.expected[index]:
                rep.failed += 1
                continue
            estimated, observed = execution.estimated_seconds, execution.observed_seconds
            rep.sim_cost_s += observed
            rep.est_n += 1
            rep.est_good += is_good(estimated, observed)
            rep.est_verygood += is_very_good(estimated, observed)
            for key in (f"plan_{ticket.plan_source}", f"join_{execution.plan.join_site}"):
                rep.counts[key] = rep.counts.get(key, 0) + 1
        return rep

    def rep(self) -> Rep:
        for site, state in zip(self.sites, self.state):
            site.database.restore_state(state)
        return self._serve(self.stream)

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()

    def info(self) -> dict:
        return {
            "distinct_joins": len(self.queries),
            "plan_cache": self.hot,
            "probe_ttl": PINNED_PROBE_TTL if self.hot else 0.0,
            "workers": 1,
            "clients": 1,
        }


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


class FleetWorkload(Workload):
    """``Coordinator(cfg, payload).run(workers=1)``: shards in-process."""

    name = "fleet"

    @property
    def ops_per_rep(self) -> int:
        return self.loadgen.shards * self.loadgen.rounds * self.loadgen.queries_per_round

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.loadgen = default_loadgen_config(
            self.config, "mixed", shards=sizes.fleet_shards, rounds=sizes.fleet_rounds
        )

    def setup(self) -> None:
        self.payload = train_models(self.config)
        self.reference: str | None = None
        self.report = None

    def rep(self) -> Rep:
        with _Timer() as timer:
            report = Coordinator(self.loadgen, self.payload).run(workers=1)
        self.report = report
        aggregate = report.aggregate()
        latencies = [
            1e3 * seconds for shard in report.shard_reports for seconds in shard.wall_latencies
        ]
        requests = aggregate["requests"]
        rep = Rep(
            requests, timer.wall_s, timer.cpu_s, latencies,
            failed=requests - aggregate["completed"],
            sim_cost_s=aggregate["latency_sim_seconds"]["mean"] * aggregate["completed"],
        )
        payload_digest = hashlib.sha256(report.deterministic_payload().encode()).hexdigest()
        if self.reference is None:
            self.reference = payload_digest
        elif payload_digest != self.reference:
            rep.failed += 1  # the fleet's determinism contract broke
        for row in aggregate["accuracy"]["rows"]:
            if row["state"] is None:  # the per-class aggregate windows
                rep.est_n += row["n"]
                rep.est_good += row["n"] * row["good_pct"] / 100.0
                rep.est_verygood += row["n"] * row["very_good_pct"] / 100.0
        closed = [
            (loop["recover_round"] - loop["onset_round"]) * self.loadgen.queries_per_round
            for loop in aggregate["drift"]["loops"].values()
            if loop["recover_round"] is not None
        ]
        rep.recover_queries = sum(closed) / len(closed) if closed else None
        rep.counts = {
            f"plan_cache_{key}": value for key, value in aggregate["plan_cache"].items()
        } | {
            "drift_events": aggregate["drift"]["events"],
            "drift_loops": len(aggregate["drift"]["loops"]),
            "drift_loops_closed": len(closed),
            "published": aggregate["drift"]["published"],
        }
        return rep

    def info(self) -> dict:
        return {
            "shards": self.loadgen.shards,
            "rounds": self.loadgen.rounds,
            "queries_per_round": self.loadgen.queries_per_round,
            "scenario_mix": list(self.loadgen.scenario_mix),
            "fault_plan": "mixed",
        }

    def trace_extras(self, rep_wall_s: float) -> dict[str, float]:
        tasks = self.loadgen.tasks()
        task_bytes = [len(pickle.dumps((task, self.payload))) for task in tasks]
        report_bytes = [len(pickle.dumps(r)) for r in self.report.shard_reports]
        # Too noisy to gate on two shared cores; kept as a diagnostic of
        # what the process pool buys over the in-process run.
        started = time.perf_counter()
        pooled = Coordinator(self.loadgen, self.payload).run(workers=2)
        pool_wall = time.perf_counter() - started
        if pooled.deterministic_payload() != self.report.deterministic_payload():
            raise RuntimeError("fleet: workers=2 disagrees with workers=1")
        return {
            "loadgen.task_pickle_bytes": sum(task_bytes) / len(task_bytes),
            "loadgen.report_pickle_bytes": sum(report_bytes) / len(report_bytes),
            "loadgen.pool2_wall_s": pool_wall,
            "loadgen.pool2_speedup_x": rep_wall_s / pool_wall,
        }


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


class DeriveWorkload(Workload):
    """The paper's pipeline: sample, partition states, select, fit, validate."""

    name = "derive"
    ALGORITHMS = ("iupma", "icma")

    @property
    def ops_per_rep(self) -> int:
        return 2 * len(ALL_CLASSES) * len(self.ALGORITHMS) * self.sizes.derive_draws

    def setup(self) -> None:
        config = self.config
        self.sites = [
            make_site("site_a", profile=ORACLE_LIKE, scale=config.scale, seed=config.seed + 81),
            make_site("site_b", profile=DB2_LIKE, scale=config.scale, seed=config.seed + 82),
        ]
        self.tasks = []
        for site in self.sites:
            builder = CostModelBuilder(site.database, config=config.builder)
            for query_class in ALL_CLASSES:
                tables = DERIVE_JOIN_TABLES if query_class.family == "join" else None
                for _ in range(self.sizes.derive_draws):
                    train = site.generator.queries_for(
                        query_class, config.train_count(query_class.family), tables=tables
                    )
                    test = site.generator.queries_for(
                        query_class, config.test_count, tables=tables
                    )
                    for algorithm in self.ALGORITHMS:
                        self.tasks.append((builder, query_class, algorithm, train, test))
        self.state = [site.database.save_state() for site in self.sites]
        self._derive(self.tasks[:1])  # imports, numpy and BLAS warm

    def _derive(self, tasks) -> Rep:
        rep = Rep(len(tasks), 0.0, 0.0, [], 0, 0.0)
        outcomes = []
        with _Timer() as timer:
            for builder, query_class, algorithm, train, test in tasks:
                timer.start_op()
                outcome = builder.build(query_class, train, algorithm=algorithm)
                timer.end_op()
                report = validate_model(outcome.model, builder.collect(test))
                outcomes.append((outcome, report))
        rep.wall_s, rep.cpu_s, rep.latencies_ms = (
            timer.wall_s, timer.cpu_s, timer.latencies_ms
        )
        states = 0
        for outcome, report in outcomes:
            model = outcome.model
            occupied = {model.state_for(o.probing_cost) for o in outcome.observations}
            if not np.isfinite(model.coefficients).all() or occupied != set(
                range(model.num_states)
            ):
                rep.failed += 1
            rep.sim_cost_s += sum(o.cost + o.probing_cost for o in outcome.observations)
            rep.est_n += report.n_queries
            rep.est_good += report.n_queries * report.pct_good / 100.0
            rep.est_verygood += report.n_queries * report.pct_very_good / 100.0
            states += model.num_states
        rep.counts = {"states": states}
        return rep

    def rep(self) -> Rep:
        for site, state in zip(self.sites, self.state):
            site.database.restore_state(state)
        return self._derive(self.tasks)

    def info(self) -> dict:
        return {
            "models_per_rep": self.ops_per_rep,
            "train_queries": self.config.unary_train,
            "test_queries": self.config.test_count,
            "scale": self.config.scale,
        }


# ---------------------------------------------------------------------------
# engine_mix
# ---------------------------------------------------------------------------


class EngineWorkload(Workload):
    """``LocalDatabase.execute`` on SQL text, data four times the buffer pool."""

    name = "engine_mix"
    WRITE_TABLE = "_w"

    @property
    def ops_per_rep(self) -> int:
        return len(ALL_CLASSES) * self.sizes.engine_per_class + self.sizes.engine_writes

    def setup(self) -> None:
        sizes = self.sizes
        tuple_length = TableSchema(
            "t", [Column(name, DataType.INT) for name in COLUMN_NAMES]
        ).tuple_length
        layout = PageLayout()
        self.total_pages = sum(
            layout.pages_for(spec.cardinality, tuple_length)
            for spec in paper_workload(scale=sizes.engine_scale).tables
        )
        self.buffer_pages = max(1, self.total_pages // 4)
        site = make_site(
            "engine", profile=ORACLE_LIKE, scale=sizes.engine_scale,
            seed=self.seed + 81, buffer_pages=self.buffer_pages,
        )
        self.database = database = site.database
        if sum(t.num_pages for t in database.catalog.tables()) != self.total_pages:
            raise RuntimeError("engine_mix: page count does not match the layout")

        rng = np.random.default_rng(self.seed + 55)
        #: op = ("query", sql, None) | ("write", join sql, rows)
        self.ops: list[tuple] = []
        #: op index -> oracle digest, one cheap query per class and write.
        self.expected: dict[int, oracle.Digest] = {}
        for query_class in ALL_CLASSES:
            tables = ENGINE_JOIN_TABLES if query_class.family == "join" else None
            sampled = False
            for query in site.generator.queries_for(
                query_class, sizes.engine_per_class, tables=tables
            ):
                sql = oracle.sql_text(query)
                if database.parse(sql) != query:
                    raise RuntimeError(f"engine_mix: SQL does not round-trip: {sql}")
                if not sampled:
                    reference = self._reference(query)
                    if reference is not None:
                        self.expected[len(self.ops)] = reference
                        sampled = True
                self.ops.append(("query", sql, None))
        columns = [Column(name, DataType.INT) for name in COLUMN_NAMES]
        self.write_columns = columns
        low, high = sizes.engine_write_rows
        for i in range(sizes.engine_writes):
            count = int(rng.integers(low, high + 1))
            rows = [
                tuple(int(v) for v in row)
                for row in rng.integers(0, 2000, size=(count, len(COLUMN_NAMES)))
            ]
            partner = ENGINE_JOIN_TABLES[i % 4]
            sql = (
                f"SELECT {self.WRITE_TABLE}.a1, {partner}.a2 FROM {self.WRITE_TABLE} "
                f"JOIN {partner} ON {self.WRITE_TABLE}.a4 = {partner}.a4 "
                f"WHERE {partner}.a7 < {int(rng.integers(5000, 25000))}"
            )
            self.ops.append(("write", sql, rows))
        order = rng.permutation(len(self.ops))
        self.expected = {
            int(np.flatnonzero(order == index)[0]): value
            for index, value in self.expected.items()
        }
        self.ops = [self.ops[int(i)] for i in order]
        # The warm-up pass fills the pool and fixes what every later
        # repetition must return.
        self.cardinalities: list[int] | None = None
        warm = self._run()
        if warm.failed:
            raise RuntimeError("engine_mix: warm-up pass failed its oracle check")
        self.state = database.save_state()

    def _reference(self, query) -> oracle.Digest | None:
        """The plain-Python answer, when it is cheap enough to compute."""
        catalog = self.database.catalog
        if hasattr(query, "table"):
            table = catalog.table(query.table)
            if table.cardinality > 20_000:
                return None
            return oracle.reference_select(table, query)
        left, right = catalog.table(query.left), catalog.table(query.right)
        if (
            oracle.join_pairs(left, right, query.left_predicate, query.right_predicate)
            > ORACLE_PAIR_BUDGET
        ):
            return None
        return oracle.reference_join(
            left, right, query.left_column, query.right_column, query.columns,
            query.left_predicate, query.right_predicate,
        )

    def _run(self) -> Rep:
        database = self.database
        results = []
        with _Timer() as timer:
            for kind, sql, rows in self.ops:
                timer.start_op()
                if kind == "write":
                    database.create_table(self.WRITE_TABLE, self.write_columns, rows)
                    database.catalog.table(self.WRITE_TABLE).analyze()
                    try:
                        result = database.execute(sql)
                    finally:
                        database.catalog.drop_table(self.WRITE_TABLE)
                else:
                    result = database.execute(sql)
                timer.end_op()
                results.append(result)
        rep = Rep(len(results), timer.wall_s, timer.cpu_s, timer.latencies_ms, 0, 0.0)
        cardinalities = [result.cardinality for result in results]
        if self.cardinalities is None:
            self.cardinalities = cardinalities
        for index, result in enumerate(results):
            rep.sim_cost_s += result.elapsed
            wrong = cardinalities[index] != self.cardinalities[index] or (
                index in self.expected
                and oracle.digest(result.result.rows) != self.expected[index]
            )
            rep.failed += wrong
        rep.counts = {
            "rows_out": float(sum(cardinalities)),
            "logical_page_reads": float(
                sum(r.metrics.logical_page_reads for r in results)
            ),
            "physical_page_reads": float(sum(r.metrics.total_page_reads for r in results)),
        }
        return rep

    def rep(self) -> Rep:
        self.database.restore_state(self.state)
        return self._run()

    def info(self) -> dict:
        return {
            "scale": self.sizes.engine_scale,
            "total_table_pages": self.total_pages,
            "buffer_pages": self.buffer_pages,
            "largest_table_rows": max(
                t.cardinality for t in self.database.catalog.tables()
            ),
            "oracle_checked_ops": len(self.expected),
        }


def make(name: str, seed: int, sizes: Sizes) -> Workload:
    if name == "serve_hot":
        return ServeWorkload(seed, sizes, hot=True)
    if name == "serve_cold":
        return ServeWorkload(seed, sizes, hot=False)
    if name == "fleet":
        return FleetWorkload(seed, sizes)
    if name == "derive":
        return DeriveWorkload(seed, sizes)
    if name == "engine_mix":
        return EngineWorkload(seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


class ReferenceLoop:
    """A fixed loop timed beside every repetition: the machine's pulse.

    A numpy pass plus a pure-Python scan over table-like rows (tuples of
    ints, as the engine stores them), so it slows down when the machine
    does — including when neighbours contend for memory, which moves
    these object-heavy workloads far more than it moves arithmetic.  A
    reader can then tell whether the machine or the code moved.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = np.arange(1_000_000, dtype=np.float64)
        self.rows = [
            tuple(int(v) for v in row) for row in rng.integers(0, 1000, size=(60_000, 9))
        ]

    def run(self) -> float:
        """Milliseconds one pass takes: the median of three, so a stray
        interrupt or a cold first pass does not pose as a slow machine."""
        return statistics.median(self._pass() for _ in range(3))

    def _pass(self) -> float:
        started = time.perf_counter()
        total = float(np.sqrt(self.values).sum())
        for _ in range(2):
            for row in self.rows:
                if row[2] < 500:
                    total += row[3]
        if not math.isfinite(total):
            raise RuntimeError("reference loop produced a non-finite sum")
        return 1e3 * (time.perf_counter() - started)
