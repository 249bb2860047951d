"""The load-generation coordinator: train once, fan shards out, merge.

The coordinator owns the three phases of a run:

1. **train** — derive the G1/G3 models once, on its own copy of the
   shard universe, and export them through the catalog's registry
   payload (:func:`~repro.loadgen.worker.train_models`);
2. **fan out** — hand every :class:`~repro.loadgen.worker.ShardTask`
   plus the payload to a process pool.  The *shard list* is fixed by the
   experiment config; ``workers`` only sets how many run concurrently,
   so the work is identical at any parallelism.  Pool workers get fresh
   observability state via the :func:`hermetic_worker_obs` initializer;
   ``workers=1`` runs every shard in-process — the reference ordering
   the pool must reproduce;
3. **merge** — reassemble shard reports in index order and aggregate
   (:func:`~repro.loadgen.report.aggregate_reports`).  The aggregate's
   canonical JSON is byte-identical across worker counts; wall-clock
   throughput lives beside it, clearly nondeterministic.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..experiments.config import ExperimentConfig
from ..workload.scenarios import SCENARIO_KINDS
from .faults import FaultSchedule, named_fault_plan
from .report import aggregate_reports, deterministic_json, percentile
from .worker import ShardReport, ShardTask, make_universe, run_shard, train_models

#: Default simulated seconds between served rounds (matches the
#: drift-detection experiment's cadence).
DEFAULT_GAP_SECONDS = 600.0


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one load-generation run (picklable, fully declarative)."""

    experiment: ExperimentConfig
    shards: int
    rounds: int
    gap_seconds: float = DEFAULT_GAP_SECONDS
    #: Scenario per shard, cycled when fewer named than shards.
    scenario_mix: tuple[str, ...] = SCENARIO_KINDS
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    queries_per_round: int = 3
    #: Record every served request's span tree in each shard.  Spans
    #: clock on simulated time with shard-local ids, so the merged trace
    #: is byte-identical at any worker count.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.scenario_mix:
            raise ValueError("scenario_mix must name at least one scenario")

    def scenario_for(self, shard: int) -> str:
        return self.scenario_mix[shard % len(self.scenario_mix)]

    def tasks(self) -> list[ShardTask]:
        return [
            ShardTask(
                index=index,
                scenario=self.scenario_for(index),
                rounds=self.rounds,
                gap_seconds=self.gap_seconds,
                config=self.experiment,
                faults=self.faults.for_shard(index),
                queries_per_round=self.queries_per_round,
                trace=self.trace,
            )
            for index in range(self.shards)
        ]


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def hermetic_worker_obs() -> None:
    """Give a pool worker fresh observability state.

    A forked worker must not keep recording into a copy of the parent's
    registry/tracker, or cross-process aggregates would silently
    double-count whatever the parent had accumulated.
    """
    obs.set_registry(obs.MetricsRegistry())
    obs.set_tracker(obs.AccuracyTracker())


def default_loadgen_config(
    experiment: ExperimentConfig,
    fault_plan: str = "mixed",
    shards: int | None = None,
    rounds: int | None = None,
) -> LoadGenConfig:
    """The standard run shape: config-sized fleet, named fault plan."""
    shards = shards if shards is not None else experiment.loadgen_shards
    rounds = rounds if rounds is not None else experiment.loadgen_rounds
    return LoadGenConfig(
        experiment=experiment,
        shards=shards,
        rounds=rounds,
        faults=named_fault_plan(
            fault_plan, shards, rounds, DEFAULT_GAP_SECONDS
        ),
    )


@dataclass
class LoadGenReport:
    """Everything one coordinator run produced."""

    config: LoadGenConfig
    #: Parallelism asked for; ``pool_size`` is what the machine allowed.
    workers: int
    shard_reports: list[ShardReport]
    wall_seconds: float = 0.0
    #: CPUs the coordinator's process could run on.
    cpu_count: int = 1
    #: Processes that actually ran shards (1 = in the coordinator's own).
    pool_size: int = 1

    def aggregate(self) -> dict:
        """The deterministic cross-shard payload (worker-count invariant)."""
        return aggregate_reports(self.shard_reports, self.config.gap_seconds)

    def deterministic_payload(self) -> str:
        return deterministic_json(self.aggregate())

    def merged_trace(self) -> str:
        """Every shard's spans as one JSONL document.

        Shards merge in index order and each span renders as canonical
        JSON (sorted keys, compact separators), so the merged trace is
        byte-identical at any ``run(workers=…)`` — the same determinism
        contract as :meth:`deterministic_payload`.
        """
        lines = []
        for report in self.shard_reports:  # already in index order
            for span in report.trace_spans:
                lines.append(json.dumps(span, sort_keys=True, separators=(",", ":")))
        return "".join(line + "\n" for line in lines)

    def write_merged_trace(self, path: str | Path) -> int:
        """Write :meth:`merged_trace` to *path*; returns the span count."""
        Path(path).write_text(self.merged_trace(), encoding="utf-8")
        return sum(len(r.trace_spans) for r in self.shard_reports)

    def wall_stats(self) -> dict:
        """Real wall-clock throughput/latency (NOT deterministic)."""
        latencies = sorted(
            value
            for report in self.shard_reports
            for value in report.wall_latencies
        )
        requests = sum(r.requests for r in self.shard_reports)
        return {
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "pool_size": self.pool_size,
            "wall_seconds": self.wall_seconds,
            "qps": requests / self.wall_seconds if self.wall_seconds else 0.0,
            "latency_wall_seconds": {
                "count": len(latencies),
                "p50": percentile(latencies, 0.50),
                "p95": percentile(latencies, 0.95),
                "p99": percentile(latencies, 0.99),
            },
        }


class Coordinator:
    """Runs one :class:`LoadGenConfig` at a chosen parallelism."""

    def __init__(self, config: LoadGenConfig, payload: dict | None = None) -> None:
        self.config = config
        #: The trained registry payload.  Pass one to share training
        #: across runs (train once, then compare worker counts).
        self.payload = payload

    def train(self) -> dict:
        """Derive the shared models (idempotent; cached on the instance)."""
        if self.payload is None:
            self.payload = train_models(self.config.experiment)
        return self.payload

    def run(self, workers: int = 1) -> LoadGenReport:
        """Execute every shard with up to *workers* processes and merge.

        The pool never outgrows the CPUs the process may run on: extra
        workers there only take turns (the shards are CPU-bound).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        payload = self.train()
        tasks = self.config.tasks()
        cpus = available_cpus()
        pool_size = min(workers, len(tasks), cpus)
        started = time.perf_counter()
        if pool_size == 1:
            reports = [run_shard(task, payload) for task in tasks]
        else:
            # Build the universe's templates here, before the pool forks:
            # workers started by fork() inherit them (spawned ones build
            # once, on their first shard).
            make_universe(self.config.experiment)
            by_index: dict[int, ShardReport] = {}
            with ProcessPoolExecutor(
                max_workers=pool_size,
                initializer=hermetic_worker_obs,
            ) as pool:
                futures = {
                    pool.submit(run_shard, task, payload): task.index
                    for task in tasks
                }
                for future, index in futures.items():
                    by_index[index] = future.result()
            reports = [by_index[task.index] for task in tasks]
        return LoadGenReport(
            config=self.config,
            workers=workers,
            shard_reports=reports,
            wall_seconds=time.perf_counter() - started,
            cpu_count=cpus,
            pool_size=pool_size,
        )
