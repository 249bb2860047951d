"""Canned experimental sites: database + environment + generator bundles.

The §5 experiments need the same local database observed under different
environments (static for Static Approach 1, dynamic-uniform for the main
results, dynamic-clustered for Table 6).  A :class:`Site` bundles one
local DBS with its environment, load builder, and query generator, and
the factory functions build the standard configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..engine.database import LocalDatabase
from ..engine.predicate import Comparison
from ..engine.profiles import DBMSProfile, ORACLE_LIKE
from ..env.environment import (
    Environment,
    dynamic_clustered_environment,
    dynamic_uniform_environment,
    static_environment,
)
from ..env.loadbuilder import LoadBuilder
from ..env.monitor import EnvironmentMonitor
from ..mdbs.gquery import GlobalJoinQuery
from .querygen import QueryGenerator
from .tablegen import WorkloadSpec, paper_workload, populate_database

ENVIRONMENT_KINDS = ("static", "uniform", "clustered")

#: Named contention scripts the load-generation harness cycles over a
#: shard fleet (:mod:`repro.loadgen`).  Each is a *scenario*: a recipe
#: for what one site's contention trace does over a served timeline.
SCENARIO_KINDS = ("calm", "random_walk", "clustered", "regime_shift")

#: The restrained range models are derived (and calm scenarios served)
#: under — mirrors the drift-detection experiment's baseline regime.
SCENARIO_CALM_RANGE = (0.0, 0.45)
#: Where the ``regime_shift`` scenario pins contention: outside every
#: calm-derived [Cmin, Cmax] range, so the drift loop must react.
SCENARIO_SHIFTED_LEVEL = 0.9
#: Share of a shard's rounds served before ``regime_shift`` leaves the calm regime.
SCENARIO_SHIFT_FRACTION = 1.0 / 3.0


def scenario_shift_round(total_rounds: int) -> int:
    """The served round at which ``regime_shift`` leaves the calm regime."""
    return max(1, int(total_rounds * SCENARIO_SHIFT_FRACTION))


def install_scenario_trace(
    load_builder: LoadBuilder, kind: str, round_index: int, total_rounds: int
) -> bool:
    """Install the contention trace *kind* prescribes at *round_index*.

    Determinism comes from the load builder's seed: re-installing the
    same scenario on the same builder reproduces the same trace.  The
    harness calls this at round 0, at the ``regime_shift`` boundary, and
    whenever an injected fault clears and the scenario's own trace must
    come back.  Returns True when the regime-shift disturbance is in
    effect at this round (the onset signal the drift loop is measured
    against).
    """
    if kind == "calm":
        load_builder.uniform(*SCENARIO_CALM_RANGE)
        return False
    if kind == "random_walk":
        load_builder.random_walk(step=0.08, start=0.35)
        return False
    if kind == "clustered":
        load_builder.clustered()
        return False
    if kind == "regime_shift":
        if round_index >= scenario_shift_round(total_rounds):
            load_builder.constant(SCENARIO_SHIFTED_LEVEL)
            return True
        load_builder.uniform(*SCENARIO_CALM_RANGE)
        return False
    raise ValueError(
        f"unknown scenario kind {kind!r}; pick from {SCENARIO_KINDS}"
    )


@dataclass
class Site:
    """One local site of the multidatabase system, ready to experiment on."""

    database: LocalDatabase
    environment: Environment
    load_builder: LoadBuilder
    monitor: EnvironmentMonitor
    generator: QueryGenerator

    @property
    def name(self) -> str:
        return self.database.name


def make_environment(kind: str, seed: int = 0) -> Environment:
    """Build one of the three standard environments."""
    if kind == "static":
        return static_environment()
    if kind == "uniform":
        return dynamic_uniform_environment(seed=seed)
    if kind == "clustered":
        return dynamic_clustered_environment(seed=seed)
    raise ValueError(f"unknown environment kind {kind!r}; pick from {ENVIRONMENT_KINDS}")


def make_site(
    name: str,
    profile: DBMSProfile = ORACLE_LIKE,
    environment_kind: str = "uniform",
    workload: WorkloadSpec | None = None,
    scale: float = 0.05,
    seed: int = 0,
    noise_sigma: float = 0.05,
    buffer_pages: int | None = None,
) -> Site:
    """Assemble a populated site.

    ``scale`` shrinks the paper's 3,000–250,000-row tables so that full
    pipelines stay laptop-fast; experiments record the scale used.
    ``buffer_pages`` enables the simulated buffer pool (sized in pages);
    sites with a pool expose the buffer-hit state as an extra
    qualitative variable.  Sites with equal workloads share their column
    arrays and built indexes (:func:`~.tablegen.populate_database`
    forks one template per spec) and nothing else.
    """
    environment = make_environment(environment_kind, seed=seed)
    database = LocalDatabase(
        name,
        profile=profile,
        environment=environment,
        noise_sigma=noise_sigma,
        seed=seed,
        buffer_pages=buffer_pages,
    )
    populate_database(database, workload or paper_workload(scale=scale, seed=seed))
    return Site(
        database=database,
        environment=environment,
        load_builder=LoadBuilder(environment, seed=seed),
        monitor=EnvironmentMonitor(environment),
        generator=QueryGenerator(database, seed=seed + 1),
    )


def make_two_site_universe(
    *,
    names: tuple[str, str],
    profiles: tuple[DBMSProfile, DBMSProfile],
    seeds: tuple[int, int],
    scale: float,
    calm_range: tuple[float, float] | None = None,
    environment_kind: str = "uniform",
) -> tuple[Site, Site]:
    """The seeded two-site universe every serving experiment builds.

    The drift-detection experiment, the serving-throughput bench and the
    loadgen shards all construct the same shape — two :func:`make_site`
    calls differing only in names, profiles, and seed offsets, optionally
    pinned to a calm uniform contention range before model derivation.
    Centralizing it keeps their universes byte-identical for a given
    (names, profiles, seeds, scale) tuple no matter which harness asks.
    """
    first = make_site(
        names[0],
        profile=profiles[0],
        environment_kind=environment_kind,
        scale=scale,
        seed=seeds[0],
    )
    second = make_site(
        names[1],
        profile=profiles[1],
        environment_kind=environment_kind,
        scale=scale,
        seed=seeds[1],
    )
    if calm_range is not None:
        first.load_builder.uniform(*calm_range)
        second.load_builder.uniform(*calm_range)
    return first, second


def round_query(
    left: str, right: str, tables: Sequence[str], rng: np.random.Generator
) -> GlobalJoinQuery:
    """One served global join of the serving experiments.

    *left* is always the left site, so its local selection runs (and
    feeds its unary class's accuracy window) whichever join site the
    optimizer picks.  Four draws from *rng*, in this order: the left
    table, the right table and the two selection constants.
    """
    left_table = tables[int(rng.integers(0, len(tables)))]
    remaining = [t for t in tables if t != left_table]
    right_table = remaining[int(rng.integers(0, len(remaining)))]
    return GlobalJoinQuery(
        left,
        left_table,
        right,
        right_table,
        "a4",
        "a4",
        (f"{left_table}.a1", f"{right_table}.a2"),
        left_predicate=Comparison("a3", "<", int(rng.integers(600, 950))),
        right_predicate=Comparison("a7", "<", int(rng.integers(35000, 48000))),
    )
