"""Experiment configuration: scales, sample sizes, seeds.

Three presets:

* :func:`tiny` — seconds-long smoke preset for CI smokes and
  determinism guards;
* :func:`quick` — the default for tests and benchmarks: scaled-down
  tables and Proposition-4.1-sized-for-fewer-states samples, so the whole
  suite runs in seconds while preserving every qualitative shape;
* :func:`full` — paper-sized sampling (370 unary / 550 join observations,
  the eq. (4) numbers for m = 6) on larger tables, for the
  EXPERIMENTS.md record runs.

Absolute costs differ from the paper's testbed either way (our substrate
is a simulator); the comparisons of interest — multi-states vs one-state
vs static, IUPMA vs ICMA, R² saturation in the state count — are scale-
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.builder import BuilderConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner."""

    #: Cardinality scale relative to the paper's 3,000–250,000 tables.
    scale: float = 0.02
    #: Base seed; sites and generators derive their own from it.
    seed: int = 7
    #: Training-sample sizes per class family.
    unary_train: int = 170
    join_train: int = 170
    #: Static Approach 1's training size (one state — m = 1 in Prop. 4.1).
    static_train: int = 70
    #: Held-out test queries per class.
    test_count: int = 60
    #: Restrict join sampling to the smaller tables (index into R1..R12);
    #: None means all tables.
    join_tables: tuple[str, ...] | None = ("R1", "R2", "R3", "R4", "R5", "R6")
    #: Buffer-pool capacity in pages for every site built by the harness;
    #: None (the default) runs without the simulated memory hierarchy.
    buffer_pages: int | None = None
    #: Load-generation fleet shape (:mod:`repro.loadgen`): shards are the
    #: unit of determinism — ``Coordinator.run(workers=…)`` only changes
    #: how many run at once, never how many exist — and rounds is each
    #: shard's served timeline length.
    loadgen_shards: int = 8
    loadgen_rounds: int = 24
    #: Pipeline tunables (state determination, selection, sampling pauses).
    builder: BuilderConfig = field(default_factory=BuilderConfig)

    def train_count(self, family: str) -> int:
        return self.unary_train if family == "unary" else self.join_train

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def tiny(seed: int = 13) -> ExperimentConfig:
    """Smallest preset that still exercises every pipeline stage.

    Used by smoke tests and the cross-process determinism guard; the
    qualitative shapes survive but the absolute numbers are noisier than
    :func:`quick`.
    """
    return ExperimentConfig(
        scale=0.008,
        seed=seed,
        unary_train=90,
        join_train=90,
        static_train=40,
        test_count=30,
        join_tables=("R1", "R2", "R3", "R4"),
        loadgen_shards=4,
        loadgen_rounds=18,
    )


def quick(seed: int = 7) -> ExperimentConfig:
    """Fast preset used by the test and benchmark suites."""
    return ExperimentConfig(seed=seed)


def full(seed: int = 7) -> ExperimentConfig:
    """Paper-sized preset (eq. (4) sample sizes, larger tables)."""
    return ExperimentConfig(
        scale=0.1,
        seed=seed,
        unary_train=370,
        join_train=550,
        static_train=100,
        test_count=100,
        join_tables=("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"),
        loadgen_shards=16,
        loadgen_rounds=32,
    )
