"""Sample-size ablation: validating Proposition 4.1's sizing rule.

The paper sizes samples at 10 observations per estimated parameter
(Prop. 4.1 / eq. (4)).  This ablation sweeps the training-sample size
for one class and measures model quality on a fixed test set: quality
should climb steeply while undersampled, then flatten near the
Prop.-4.1-recommended size — i.e. the rule buys nearly all the available
accuracy without wasting sampling effort (each sample query is real work
on a production system).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.builder import CostModelBuilder
from ..core.classification import G1, QueryClass
from ..core.sampling import recommended_sample_size
from ..core.validation import ValidationReport, validate_model
from ..engine.profiles import DBMSProfile, ORACLE_LIKE
from ..workload.scenarios import make_site
from .config import ExperimentConfig
from .report import format_table


@dataclass
class SampleSizePoint:
    sample_size: int
    num_states: int
    report: ValidationReport


@dataclass
class SampleSizeAblationResult:
    profile: str
    class_label: str
    recommended: int
    points: list[SampleSizePoint]

    def nearest_to_recommended(self) -> SampleSizePoint:
        return min(
            self.points, key=lambda p: abs(p.sample_size - self.recommended)
        )


def run_sample_size_ablation(
    config: ExperimentConfig | None = None,
    profile: DBMSProfile = ORACLE_LIKE,
    query_class: QueryClass = G1,
    sizes: tuple[int, ...] = (30, 60, 110, 170, 260, 370),
) -> SampleSizeAblationResult:
    """Model quality as a function of the training-sample size.

    All sizes are prefixes of one big collection run, so every model sees
    the same queries in the same environment history; the test set is
    shared.
    """
    config = config or ExperimentConfig()
    site = make_site(
        f"{profile.name}_ssize",
        profile=profile,
        environment_kind="uniform",
        scale=config.scale,
        seed=config.seed,
    )
    builder = CostModelBuilder(site.database, config=config.builder)
    all_train = builder.collect(
        site.generator.queries_for(query_class, max(sizes))
    )
    test = builder.collect(site.generator.queries_for(query_class, config.test_count))

    points = []
    for size in sizes:
        outcome = builder.build_from_observations(all_train[:size], query_class)
        points.append(
            SampleSizePoint(
                sample_size=size,
                num_states=outcome.model.num_states,
                report=validate_model(outcome.model, test),
            )
        )
    recommended = recommended_sample_size(
        query_class.variables,
        config.builder.sizing_states,
        config.builder.secondary_allowance,
    )
    return SampleSizeAblationResult(
        profile=profile.name,
        class_label=query_class.label,
        recommended=recommended,
        points=points,
    )


def sample_size_violations(result: SampleSizeAblationResult) -> list[str]:
    """Proposition 4.1's sizing rule, checked: quality climbs while the
    sample is small, then flattens, and a Prop.-4.1-sized sample is
    within 10 %good points of the largest."""
    points = sorted(result.points, key=lambda p: p.sample_size)
    smallest, largest = points[0], points[-1]
    violations = []
    if smallest.num_states > largest.num_states:
        violations.append("the smallest sample finds more states than the largest")
    if largest.report.pct_good < smallest.report.pct_good:
        violations.append("the largest sample's %good is below the smallest's")
    early_gain = points[2].report.pct_good - smallest.report.pct_good
    late_gain = largest.report.pct_good - points[3].report.pct_good
    if early_gain < late_gain - 5.0:
        violations.append("the last doubling buys 5+ points more %good than the first")
    near = result.nearest_to_recommended()
    if near.report.pct_good < largest.report.pct_good - 10.0:
        violations.append("the recommended size is 10+ %good points below the largest")
    return violations


def render_sample_size_ablation(result: SampleSizeAblationResult) -> str:
    headers = ("# samples", "# states", "R2", "very good %", "good %")
    rows = [
        (
            p.sample_size,
            p.num_states,
            p.report.r_squared,
            p.report.pct_very_good,
            p.report.pct_good,
        )
        for p in result.points
    ]
    return format_table(
        headers,
        rows,
        title=(
            f"Sample-size ablation: {result.class_label} on {result.profile} "
            f"(Prop. 4.1 recommends {result.recommended} for m=6)"
        ),
    )
