"""Distributed load generation: coordinator, shard workers, faults.

A :class:`~repro.loadgen.coordinator.Coordinator` trains the shared cost
models once, fans a fixed set of scenario **shards** out to a process
pool, injects scripted site faults
(:class:`~repro.loadgen.faults.FaultSchedule`), and merges the shard
reports into one aggregate whose canonical JSON is byte-identical at
any ``Coordinator.run(workers=…)``.
"""

from .coordinator import (
    DEFAULT_GAP_SECONDS,
    Coordinator,
    LoadGenConfig,
    LoadGenReport,
    default_loadgen_config,
)
from .faults import (
    FAULT_KINDS,
    FAULT_PLANS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    SiteOutageError,
    UnavailableProbe,
    named_fault_plan,
)
from .report import (
    DriftLoopStats,
    aggregate_reports,
    deterministic_json,
    measure_drift_loop,
    percentile,
)
from .worker import (
    STEADY_SITE,
    VAR_SITE,
    WATCHED_CLASS,
    RoundRecord,
    ShardReport,
    ShardTask,
    loadgen_drift_policy,
    loadgen_tables,
    make_universe,
    run_shard,
    train_model_payloads,
    train_models,
    universe_seed,
)

__all__ = [
    "DEFAULT_GAP_SECONDS",
    "FAULT_KINDS",
    "FAULT_PLANS",
    "Coordinator",
    "DriftLoopStats",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LoadGenConfig",
    "LoadGenReport",
    "RoundRecord",
    "STEADY_SITE",
    "ShardReport",
    "ShardTask",
    "SiteOutageError",
    "UnavailableProbe",
    "VAR_SITE",
    "WATCHED_CLASS",
    "aggregate_reports",
    "default_loadgen_config",
    "deterministic_json",
    "loadgen_drift_policy",
    "loadgen_tables",
    "make_universe",
    "measure_drift_loop",
    "named_fault_plan",
    "percentile",
    "run_shard",
    "train_model_payloads",
    "train_models",
    "universe_seed",
]
