"""Human-readable derivation reports for cost models.

`CostModelBuilder` records everything that happened on the way to a
model — the phase-1 state search, merges, variable-selection steps, the
per-state sample counts.  This module renders a
:class:`~repro.core.builder.BuildOutcome` as one diagnostic report, so a
user can answer "why did my cost model end up with these states and
variables?" without spelunking through metadata dicts.
"""

from __future__ import annotations

from .builder import BuildOutcome
from .validation import ValidationReport
from .variables import Sample


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def derivation_report(
    outcome: BuildOutcome,
    test_observations: Sample | None = None,
) -> str:
    """Render the full derivation story of one cost model.

    Optionally scores the model against held-out *test_observations*
    (the §5 very-good/good criteria).
    """
    model = outcome.model
    lines: list[str] = [
        f"Cost model derivation report — class {model.class_label} "
        f"({model.family}), algorithm {model.algorithm}",
        f"database: {model.metadata.get('database', '?')}",
        f"probing query: {model.metadata.get('probe', '?')}",
        f"training sample: {model.n_observations} observations",
    ]

    lines += _section("Contention states")
    lines.append(f"probing-cost range: [{model.states.cmin:.4g}, {model.states.cmax:.4g}]")
    counts = _state_counts(outcome)
    for i, (lo, hi) in enumerate(model.states.subranges()):
        count = counts[i] if counts is not None else "?"
        lines.append(f"  s{i}: [{lo:.4g}, {hi:.4g})  ({count} training observations)")
    if outcome.determination is not None:
        lines.append("phase 1 (iterative partition search):")
        for record in outcome.determination.phase1:
            status = "accepted" if record.accepted else "rejected"
            lines.append(
                f"  m={record.num_states}: R2={record.r_squared:.4f} "
                f"SEE={record.standard_error:.4g}  [{status}]"
            )
        if outcome.determination.merges:
            for merge in outcome.determination.merges:
                pairs = ", ".join(f"s{i}+s{i + 1}" for i in merge.merged_pairs)
                lines.append(
                    f"phase 2 merge: {merge.num_states_before} states -> "
                    f"merged {pairs}"
                )
        else:
            lines.append("phase 2: no states merged")
    else:
        lines.append("(static algorithm: single state by construction)")

    lines += _section("Variable selection")
    for step in outcome.selection.steps:
        lines.append(f"  [{step.action}] {step.variable}: {step.detail}")
    if not outcome.selection.steps:
        lines.append("  (no variables screened, removed, or added)")
    lines.append(f"selected variables: {', '.join(model.variable_names)}")

    lines += _section("Fitted model")
    lines.append(model.equation_table())
    lines.append(
        f"fit: R2={model.r_squared:.4f}, SEE={model.standard_error:.4g}, "
        f"F significant at 1%: {'yes' if model.is_significant() else 'NO'}"
    )

    if outcome.timings:
        lines += _section("Derivation cost")
        total = sum(outcome.timings.values())
        for phase, seconds in outcome.timings.items():
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"  {phase}: {seconds:.3f}s ({share:.0f}%)")
        lines.append(f"  total: {total:.3f}s (real time)")

    if test_observations:
        from .validation import validate_model

        report: ValidationReport = validate_model(model, test_observations)
        lines += _section(f"Validation on {report.n_queries} held-out queries")
        lines.append(
            f"  very good (rel err <= 30%): {report.pct_very_good:.1f}%"
        )
        lines.append(f"  good (within 2x):           {report.pct_good:.1f}%")
        lines.append(f"  acceptable (within 10x):    {report.pct_acceptable:.1f}%")
        lines.append(f"  mean relative error:        {report.mean_relative_error:.3f}")
    return "\n".join(lines)


def _state_counts(outcome: BuildOutcome) -> list[int] | None:
    """Per-state training counts under the final partition."""
    try:
        states = outcome.model.states
        counts = [0] * states.num_states
        for state in states.assign(outcome.observations.probing_cost.tolist()):
            counts[state] += 1
        return counts
    except Exception:  # pragma: no cover - defensive
        return None
