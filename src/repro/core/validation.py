"""Cost-model validation: the paper's estimate-quality criteria.

§5: "the accuracy of cost estimation in query optimization is not
required to be very high.  The estimated costs with relative errors
within 30% are considered to be very good, and the estimated costs that
are within the range of one-time larger or smaller than the corresponding
observed costs (e.g., 2 minutes vs 4 minutes) are considered to be good.
Only those estimated costs which are not of the same order of magnitude
with the observed costs (e.g., 2 minutes vs 3 hours) are not acceptable."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MultiStateCostModel
from .qualitative import build_design
from .variables import Sample

#: "Very good": relative error within 30%.
VERY_GOOD_RELATIVE_ERROR = 0.30
#: "Good": within one time larger or smaller (a factor of 2).
GOOD_FACTOR = 2.0
#: "Acceptable": same order of magnitude (a factor of 10).
ACCEPTABLE_FACTOR = 10.0
#: Level of the overall F test a report reads (§5: alpha = 0.01).
SIGNIFICANCE_LEVEL = 0.01


def relative_error(estimated: float, observed: float) -> float:
    """|est - obs| / obs (infinite when the observed cost is zero)."""
    if observed == 0.0:
        return float("inf") if estimated != 0.0 else 0.0
    return abs(estimated - observed) / abs(observed)


def _ratio(estimated: float, observed: float) -> float:
    """max/min ratio; infinite for non-positive estimates of positive costs."""
    if observed <= 0.0:
        return 1.0 if estimated == observed else float("inf")
    if estimated <= 0.0:
        return float("inf")
    return max(estimated / observed, observed / estimated)


def is_very_good(estimated: float, observed: float) -> bool:
    return relative_error(estimated, observed) <= VERY_GOOD_RELATIVE_ERROR


def is_good(estimated: float, observed: float) -> bool:
    """Within one time larger or smaller (includes all very good estimates)."""
    return _ratio(estimated, observed) <= GOOD_FACTOR


def is_acceptable(estimated: float, observed: float) -> bool:
    """Same order of magnitude as the observed cost."""
    return _ratio(estimated, observed) <= ACCEPTABLE_FACTOR


@dataclass(frozen=True)
class ValidationReport:
    """Estimate-quality summary over a set of test observations."""

    n_queries: int
    average_observed_cost: float
    pct_very_good: float
    pct_good: float
    pct_acceptable: float
    mean_relative_error: float
    # Training-fit statistics carried along for Table-5-style rows.
    r_squared: float
    standard_error: float
    f_significant: bool

    def row(self) -> dict:
        """A flat dict (one Table-5 row)."""
        return {
            "n": self.n_queries,
            "R2": self.r_squared,
            "SEE": self.standard_error,
            "avg_cost": self.average_observed_cost,
            "very_good_pct": self.pct_very_good,
            "good_pct": self.pct_good,
            "acceptable_pct": self.pct_acceptable,
            "mean_rel_err": self.mean_relative_error,
            "F_significant": self.f_significant,
        }


def validate_model(
    model: MultiStateCostModel, test_observations: Sample
) -> ValidationReport:
    """Score *model* against a held-out sample.

    Each test row supplies both the variable values and the sampled
    probing cost that resolves its contention state — exactly the
    information the optimizer would have at estimation time.  The F test
    is read at the paper's :data:`SIGNIFICANCE_LEVEL`.
    """
    if not len(test_observations):
        raise ValueError("at least one test observation is required")
    from ..obs import span as _obs_span

    with _obs_span(
        "build.validation",
        class_label=model.class_label,
        n_queries=len(test_observations),
    ):
        return _validate(model, test_observations)


def _estimates(model: MultiStateCostModel, sample: Sample) -> list[float]:
    """``model.predict`` of every row, from the columns.

    Each estimate is one design row's dot product with the coefficients,
    as :meth:`MultiStateCostModel.predict_in_state` takes it, so the
    floats are the same.
    """
    design = build_design(
        sample.matrix(model.variable_names),
        model.states.assign(sample.probing_cost.tolist()),
        model.num_states,
        model.form,
    )
    coefficients = model.coefficients
    return [float(row @ coefficients) for row in design]


def _validate(model: MultiStateCostModel, sample: Sample) -> ValidationReport:
    estimates = _estimates(model, sample)
    observed = sample.cost.tolist()
    very_good = sum(is_very_good(e, o) for e, o in zip(estimates, observed))
    good = sum(is_good(e, o) for e, o in zip(estimates, observed))
    acceptable = sum(is_acceptable(e, o) for e, o in zip(estimates, observed))
    rel_errors = [
        relative_error(e, o) for e, o in zip(estimates, observed) if o > 0
    ]
    n = len(sample)
    return ValidationReport(
        n_queries=n,
        average_observed_cost=float(sample.cost.mean()),
        pct_very_good=100.0 * very_good / n,
        pct_good=100.0 * good / n,
        pct_acceptable=100.0 * acceptable / n,
        mean_relative_error=float(np.mean(rel_errors)) if rel_errors else 0.0,
        r_squared=model.r_squared,
        standard_error=model.standard_error,
        f_significant=model.is_significant(SIGNIFICANCE_LEVEL),
    )
