"""Probing-cost estimation ablation (§3.3's "Probing costs estimation").

Instead of executing the probing query, estimate its cost from system
statistics via eq. (2): cheaper per state determination, at the price of
estimation error.  This experiment:

1. calibrates a :class:`~repro.core.probing.ProbingCostEstimator` on the
   dynamic site;
2. measures the estimator's own accuracy against fresh observed probing
   costs;
3. re-validates a multi-states model on the same test queries with the
   state resolved from *estimated* probing costs, quantifying the
   accuracy the estimation variant gives up.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.builder import CostModelBuilder
from ..core.classification import G1, QueryClass
from ..core.probing import ProbingCostEstimator
from ..core.validation import ValidationReport, validate_model
from ..core.variables import SampleRecorder
from ..engine.profiles import DBMSProfile, ORACLE_LIKE
from ..env.monitor import EnvironmentMonitor
from ..workload.scenarios import make_site
from .config import ExperimentConfig
from .report import format_table

#: (statistics snapshot, observed probing cost) pairs eq. (2) is fitted on.
CALIBRATION_SAMPLES = 80


@dataclass
class ProbingEstimationResult:
    profile: str
    class_label: str
    #: R² of the eq. (2) regression itself.
    estimator_r_squared: float
    selected_parameters: tuple[str, ...]
    #: Model accuracy with states from observed vs estimated probing costs.
    report_observed: ValidationReport
    report_estimated: ValidationReport


def run_probing_estimation(
    config: ExperimentConfig | None = None,
    profile: DBMSProfile = ORACLE_LIKE,
    query_class: QueryClass = G1,
) -> ProbingEstimationResult:
    config = config or ExperimentConfig()
    site = make_site(
        f"{profile.name}_probe_est",
        profile=profile,
        environment_kind="uniform",
        scale=config.scale,
        seed=config.seed,
    )
    builder = CostModelBuilder(site.database, config=config.builder)

    # Calibrate eq. (2) on (statistics snapshot, observed probe cost) pairs.
    estimator = ProbingCostEstimator()
    monitor = EnvironmentMonitor(site.environment)
    estimator.calibrate(builder.probe, monitor, samples=CALIBRATION_SAMPLES)

    # Train the multi-states model as usual (observed probing costs).
    train = builder.collect(
        site.generator.queries_for(
            query_class, config.train_count(query_class.family)
        )
    )
    outcome = builder.build_from_observations(train, query_class, "iupma")

    # Test twice: states from observed probes vs from estimated probes,
    # each estimate taken just before the probe it stands in for.
    test_queries = site.generator.queries_for(query_class, config.test_count)
    recorder = SampleRecorder(pooled=site.database.buffer_pool is not None)
    estimated_probes = []
    for query in test_queries:
        estimated_probes.append(estimator.estimate(monitor.statistics()))
        observed_probe = builder.probe.observe()
        recorder.record(site.database.execute(query), observed_probe)
        site.environment.advance(config.builder.sampling.pause_seconds)
    test_observed = recorder.sample()
    test_estimated = test_observed.with_probing_cost(estimated_probes)

    return ProbingEstimationResult(
        profile=profile.name,
        class_label=query_class.label,
        estimator_r_squared=estimator.fit.r_squared,
        selected_parameters=estimator.selected_parameters,
        report_observed=validate_model(outcome.model, test_observed),
        report_estimated=validate_model(outcome.model, test_estimated),
    )


def render_probing_estimation(result: ProbingEstimationResult) -> str:
    headers = ("probing costs", "very good %", "good %", "mean rel err")
    rows = [
        (
            "observed",
            result.report_observed.pct_very_good,
            result.report_observed.pct_good,
            result.report_observed.mean_relative_error,
        ),
        (
            "estimated (eq. 2)",
            result.report_estimated.pct_very_good,
            result.report_estimated.pct_good,
            result.report_estimated.mean_relative_error,
        ),
    ]
    title = (
        f"Probing-cost estimation ablation: {result.class_label} on "
        f"{result.profile} — eq. (2) R2={result.estimator_r_squared:.3f}, "
        f"parameters={list(result.selected_parameters)}"
    )
    return format_table(headers, rows, title=title)
