"""State-count ablation (§5, fourth observation).

"The more contention states are considered, the better the derived cost
model usually is.  For example, the coefficients of total determination
for the cost models for query class [G2 on Oracle] with 1 to 6
contention states are 0.7788, 0.9636, 0.9674, 0.9899, 0.9922 [...]
However, the improvement may be very small after the number of
contention states reaches a certain point."

We fit the general qualitative model over uniform partitions with
m = 1..max and record R² and SEE — the saturating curve is the
reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.builder import CostModelBuilder
from ..core.classification import G2, QueryClass
from ..core.fitting import fit_qualitative
from ..core.partition import uniform_partition
from ..engine.profiles import DBMSProfile, ORACLE_LIKE
from ..workload.scenarios import make_site
from .config import ExperimentConfig
from .report import format_table


@dataclass
class AblationPoint:
    num_states: int
    r_squared: float
    standard_error: float


@dataclass
class StatesAblationResult:
    profile: str
    class_label: str
    points: list[AblationPoint]

    @property
    def r_squared_series(self) -> list[float]:
        return [p.r_squared for p in self.points]


def run_states_ablation(
    config: ExperimentConfig | None = None,
    profile: DBMSProfile = ORACLE_LIKE,
    query_class: QueryClass = G2,
    max_states: int = 6,
) -> StatesAblationResult:
    """R²/SEE of the general model for m = 1..max_states uniform states."""
    config = config or ExperimentConfig()
    site = make_site(
        f"{profile.name}_ablation",
        profile=profile,
        environment_kind="uniform",
        scale=config.scale,
        seed=config.seed,
    )
    builder = CostModelBuilder(site.database, config=config.builder)
    queries = site.generator.queries_for(
        query_class, config.train_count(query_class.family)
    )
    observations = builder.collect(queries)

    names = query_class.variables.basic
    X = observations.matrix(names)
    y = observations.cost
    probing = observations.probing_cost
    cmin, cmax = float(probing.min()), float(probing.max())

    points = []
    for m in range(1, max_states + 1):
        states = uniform_partition(cmin, cmax, m)
        fit = fit_qualitative(X, y, probing, states, names)
        points.append(AblationPoint(m, fit.r_squared, fit.standard_error))
    return StatesAblationResult(
        profile=profile.name, class_label=query_class.label, points=points
    )


def states_ablation_violations(result: StatesAblationResult) -> list[str]:
    """§5 observation 4, checked: R² rises with the state count, and
    saturates — the first split buys more than three times the last."""
    r2 = result.r_squared_series
    see = [p.standard_error for p in result.points]
    violations = []
    if not r2[-1] > r2[0] + 0.15:
        violations.append("R2 gains 0.15 or less from 1 state to the most")
    if not see[-1] < see[0]:
        violations.append("SEE does not fall from 1 state to the most")
    if not (r2[1] - r2[0]) > 3 * max(0.0, r2[-1] - r2[-2]):
        violations.append("the first split buys at most 3x the last")
    if any(b < a - 0.02 for a, b in zip(r2, r2[1:])):
        violations.append("R2 dips by more than 0.02 as a state is added")
    return violations


def render_states_ablation(result: StatesAblationResult) -> str:
    headers = ("# states", "R2", "SEE")
    rows = [(p.num_states, p.r_squared, p.standard_error) for p in result.points]
    return format_table(
        headers,
        rows,
        title=(
            f"State-count ablation: {result.class_label} on {result.profile} "
            "(general qualitative model, uniform partition)"
        ),
    )
