"""The shared experiment harness behind the table/figure reproductions.

One *class experiment* (the unit behind Tables 4–5 and Figures 4–9)
derives, for a given (DBMS profile, query class):

* the **multi-states** cost model (IUPMA on dynamic-environment samples);
* the **one-state** model — Static Approach 2 (the static method applied
  to the same dynamic samples);
* the **static** model — Static Approach 1 (the static method applied to
  samples from a static environment over the *same* database);

then validates all three on held-out test queries run in the dynamic
environment.  Results are cached per (profile, class, config) so the
table and figure benches can share one expensive run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.builder import BuildOutcome, CostModelBuilder
from ..core.classification import QueryClass
from ..core.model import MultiStateCostModel
from ..core.validation import ValidationReport, validate_model
from ..core.variables import Sample
from ..engine.profiles import DBMSProfile
from ..workload.scenarios import make_site
from .config import ExperimentConfig


@dataclass
class TestPoint:
    """One test query's observed and estimated costs (for Figures 4–9)."""

    result_tuples: float
    observed: float
    estimated_multi: float
    estimated_one_state: float
    estimated_static: float


@dataclass
class ClassExperimentResult:
    """Everything Tables 4–5 and Figures 4–9 need for one (site, class)."""

    site: str
    profile: str
    query_class: QueryClass
    multi: BuildOutcome
    one_state: BuildOutcome
    static: BuildOutcome
    report_multi: ValidationReport
    report_one_state: ValidationReport
    report_static: ValidationReport
    test_points: list[TestPoint] = field(default_factory=list)

    @property
    def models(self) -> dict[str, MultiStateCostModel]:
        return {
            "multi-states": self.multi.model,
            "one-state": self.one_state.model,
            "static": self.static.model,
        }

    @property
    def reports(self) -> dict[str, ValidationReport]:
        return {
            "multi-states": self.report_multi,
            "one-state": self.report_one_state,
            "static": self.report_static,
        }


def stable_seed(base: int, *parts: str) -> int:
    """A per-task seed derived from a stable key, not execution order.

    Every site a class experiment builds seeds its RNGs from
    ``stable_seed(config.seed, profile_name)``, so a task's random
    universe is a pure function of its identity: benches can run in any
    order, alone (``--only``) or together, in any process, and reproduce
    the same artifacts bit for bit.
    """
    return base + (zlib.crc32("/".join(parts).encode()) % 1000)


def stable_rng(base: int, *parts: str) -> np.random.Generator:
    """A generator seeded by :func:`stable_seed` — identity, not order.

    The load-generation shards draw their query streams from this, so a
    shard's randomness is a pure function of (config seed, shard key)
    no matter which worker process runs it.
    """
    return np.random.default_rng(stable_seed(base, *parts))


def _tables_for(query_class: QueryClass, config: ExperimentConfig):
    if query_class.family == "join":
        return config.join_tables
    return None


def run_class_experiment(
    profile: DBMSProfile,
    query_class: QueryClass,
    config: ExperimentConfig,
    environment_kind: str = "uniform",
    algorithm: str = "iupma",
) -> ClassExperimentResult:
    """Derive and validate the three models for one (profile, class)."""
    with obs.span(
        "experiments.class_experiment",
        profile=profile.name,
        query_class=query_class.label,
        algorithm=algorithm,
    ):
        return _run_class_experiment(
            profile, query_class, config, environment_kind, algorithm
        )


def _run_class_experiment(
    profile: DBMSProfile,
    query_class: QueryClass,
    config: ExperimentConfig,
    environment_kind: str,
    algorithm: str,
) -> ClassExperimentResult:
    seed = stable_seed(config.seed, profile.name)
    dynamic = make_site(
        f"{profile.name}_dyn",
        profile=profile,
        environment_kind=environment_kind,
        scale=config.scale,
        seed=seed,
        buffer_pages=config.buffer_pages,
    )
    static = make_site(
        f"{profile.name}_static",
        profile=profile,
        environment_kind="static",
        scale=config.scale,
        seed=seed,
        buffer_pages=config.buffer_pages,
    )
    tables = _tables_for(query_class, config)

    dyn_builder = CostModelBuilder(dynamic.database, config=config.builder)
    static_builder = CostModelBuilder(static.database, config=config.builder)

    train_queries = dynamic.generator.queries_for(
        query_class, config.train_count(query_class.family), tables=tables
    )
    train_obs = dyn_builder.collect(train_queries)

    test_queries = dynamic.generator.queries_for(
        query_class, config.test_count, tables=tables
    )
    test_obs = dyn_builder.collect(test_queries)

    static_queries = static.generator.queries_for(
        query_class, config.static_train, tables=tables
    )
    static_obs = static_builder.collect(static_queries)

    multi = dyn_builder.build_from_observations(train_obs, query_class, algorithm)
    one_state = dyn_builder.build_from_observations(train_obs, query_class, "static")
    static_outcome = static_builder.build_from_observations(
        static_obs, query_class, "static"
    )

    report_multi = validate_model(multi.model, test_obs)
    report_one = validate_model(one_state.model, test_obs)
    report_static = validate_model(static_outcome.model, test_obs)

    points = sorted(
        (
            TestPoint(
                result_tuples=obs.values["nr"],
                observed=obs.cost,
                estimated_multi=multi.model.predict(obs.values, obs.probing_cost),
                estimated_one_state=one_state.model.predict(
                    obs.values, obs.probing_cost
                ),
                estimated_static=static_outcome.model.predict(
                    obs.values, obs.probing_cost
                ),
            )
            for obs in test_obs
        ),
        key=lambda p: p.result_tuples,
    )

    return ClassExperimentResult(
        site=dynamic.name,
        profile=profile.name,
        query_class=query_class,
        multi=multi,
        one_state=one_state,
        static=static_outcome,
        report_multi=report_multi,
        report_one_state=report_one,
        report_static=report_static,
        test_points=points,
    )


# ---------------------------------------------------------------------------
# Cross-bench memo: one class experiment shared by Tables 4-5 and Figures 4-9
# ---------------------------------------------------------------------------


class ExperimentCache:
    """In-process memo of class-experiment results.

    Hit/miss counts live on the cache object itself, the source of
    truth for :func:`cache_stats`.
    """

    def __init__(self) -> None:
        self._memory: dict[tuple, ClassExperimentResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)


_cache = ExperimentCache()


def _memory_key(
    profile: DBMSProfile,
    query_class: QueryClass,
    config: ExperimentConfig,
    environment_kind: str,
    algorithm: str,
) -> tuple:
    return (
        profile.name,
        query_class.label,
        environment_kind,
        algorithm,
        config.scale,
        config.seed,
        config.unary_train,
        config.join_train,
        config.static_train,
        config.test_count,
        config.join_tables,
        config.buffer_pages,
    )


def cached_class_experiment(
    profile: DBMSProfile,
    query_class: QueryClass,
    config: ExperimentConfig,
    environment_kind: str = "uniform",
    algorithm: str = "iupma",
) -> ClassExperimentResult:
    """Memoized :func:`run_class_experiment` (shared across benches)."""
    key = _memory_key(profile, query_class, config, environment_kind, algorithm)
    result = _cache._memory.get(key)
    if result is not None:
        _cache.hits += 1
        return result
    _cache.misses += 1
    result = run_class_experiment(
        profile, query_class, config, environment_kind, algorithm
    )
    _cache._memory[key] = result
    return result


def cache_stats() -> tuple[int, int]:
    """(hits, misses) of the class-experiment cache so far this process."""
    return (_cache.hits, _cache.misses)


def cache_summary() -> str:
    """A one-line description of cache behaviour (for bench logs)."""
    hits, misses = cache_stats()
    lookups = hits + misses
    rate = 100.0 * hits / lookups if lookups else 0.0
    return (
        f"[experiment cache] {hits} hits / {misses} misses "
        f"({lookups} lookups, {rate:.0f}% hit rate, {len(_cache)} entries)"
    )


def collect_for_algorithm(
    profile: DBMSProfile,
    query_class: QueryClass,
    config: ExperimentConfig,
    environment_kind: str,
    algorithm: str,
) -> tuple[BuildOutcome, ValidationReport, Sample]:
    """Train one model with *algorithm* and validate it (Table 6 helper)."""
    seed = stable_seed(config.seed, profile.name)
    site = make_site(
        f"{profile.name}_{environment_kind}",
        profile=profile,
        environment_kind=environment_kind,
        scale=config.scale,
        seed=seed,
        buffer_pages=config.buffer_pages,
    )
    tables = _tables_for(query_class, config)
    builder = CostModelBuilder(site.database, config=config.builder)
    train = builder.collect(
        site.generator.queries_for(
            query_class, config.train_count(query_class.family), tables=tables
        )
    )
    test = builder.collect(
        site.generator.queries_for(query_class, config.test_count, tables=tables)
    )
    outcome = builder.build_from_observations(train, query_class, algorithm)
    report = validate_model(outcome.model, test)
    return outcome, report, test
