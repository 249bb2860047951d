"""Every paper-facing claim as a distribution over seeds.

Usage::

    python -m repro.experiments.seed_sweep > experiments_seed_sweep.txt

EXPERIMENTS.md states each claim from one universe, seed 7, and one
"good" cell there is 60 test queries: a binomial standard error of about
5-6 points.  This reruns the paper-facing artifacts at the quick preset
for seeds 1-30 — Table 5, Table 6's IUPMA against ICMA, the state-count
and sample-size ablations and ``plan_quality``'s two arms — and prints,
for each claim, the seed-7 value, the median, the interquartile range and
the range, beside the paper's number; then, for each shape check those
artifacts' benchmarks assert, the seeds that break it.

Everything above the last line is a pure function of the code, so two
commits' records can be compared byte for byte; the last line is the
wall time and the machine it was measured on.
"""

from __future__ import annotations

import os
import platform
import re
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, quick
from .plan_quality import plan_quality_violations, run_plan_quality
from .report import format_table
from .sample_size_ablation import run_sample_size_ablation, sample_size_violations
from .states_ablation import run_states_ablation, states_ablation_violations
from .table5 import Table5Row, run_table5, shape_violations
from .table6 import run_table6, table6_violations

SEEDS = tuple(range(1, 31))
#: The seed EXPERIMENTS.md's single-universe numbers come from.
RECORD_SEED = 7


@dataclass
class SeedResult:
    """One seed's claims (name -> value) and shape-check failures."""

    seed: int
    claims: dict[str, float]
    #: (check, where) per failure; *where* names the model or is "".
    violations: list[tuple[str, str]]


#: (claim, the paper's number or "") in print order.
CLAIMS: tuple[tuple[str, str], ...] = (
    ("T5 multi-states R2, average of 6 models", "0.989"),
    ("T5 multi-states R2, worst of 6", "0.972"),
    ("T5 one-state R2, average of 6", ""),
    ("T5 'very good' gain, multi over one-state (pts)", "27.0"),
    ("T5 'good' gain, multi over one-state (pts)", "20.2"),
    ("T5 static %good, average of 6", "1-18"),
    ("T5 multi-states models F-significant (of 6)", "6"),
    ("T5 one-state models F-significant (of 6)", ""),
    ("T6 IUPMA R2", "0.978"),
    ("T6 ICMA R2", "0.991"),
    ("T6 ICMA - IUPMA %good (pts)", "13"),
    ("T6 ICMA - IUPMA %very-good (pts)", "24"),
    ("T6 ICMA states", "3"),
    ("states ablation R2, 1 state", "0.7788"),
    ("states ablation R2, 2 states", "0.9636"),
    ("states ablation R2, 6 states", "0.9922"),
    ("sample size %good, smallest sample", ""),
    ("sample size %good, Prop. 4.1 size", ""),
    ("sample size %good, largest sample", ""),
    ("plan quality % optimal, multi-states", ""),
    ("plan quality % optimal, one-state", ""),
    ("plan quality regret, multi / one-state", ""),
    ("plan quality chosen / oracle seconds, multi", ""),
)


def _table5_claims(rows: list[Table5Row]) -> dict[str, float]:
    by_type: dict[str, list[Table5Row]] = {}
    for row in rows:
        by_type.setdefault(row.model_type, []).append(row)
    multi, one, static = by_type["multi-states"], by_type["one-state"], by_type["static"]

    def mean(group, attr):
        return float(np.mean([getattr(r, attr) for r in group]))

    return {
        "T5 multi-states R2, average of 6 models": mean(multi, "r_squared"),
        "T5 multi-states R2, worst of 6": min(r.r_squared for r in multi),
        "T5 one-state R2, average of 6": mean(one, "r_squared"),
        "T5 'very good' gain, multi over one-state (pts)": mean(multi, "pct_very_good")
        - mean(one, "pct_very_good"),
        "T5 'good' gain, multi over one-state (pts)": mean(multi, "pct_good")
        - mean(one, "pct_good"),
        "T5 static %good, average of 6": mean(static, "pct_good"),
        "T5 multi-states models F-significant (of 6)": sum(r.f_significant for r in multi),
        "T5 one-state models F-significant (of 6)": sum(r.f_significant for r in one),
    }


def run_seed(config: ExperimentConfig) -> SeedResult:
    """Every claim and shape check of one seed's universe."""
    rows = run_table5(config)
    table6 = run_table6(config)
    states = run_states_ablation(config)
    sizes = run_sample_size_ablation(config)
    plans = run_plan_quality(config)

    claims = _table5_claims(rows)
    iupma, icma = table6.row("IUPMA"), table6.row("ICMA")
    by_size = sorted(sizes.points, key=lambda p: p.sample_size)
    claims.update({
        "T6 IUPMA R2": iupma.report.r_squared,
        "T6 ICMA R2": icma.report.r_squared,
        "T6 ICMA - IUPMA %good (pts)": icma.report.pct_good - iupma.report.pct_good,
        "T6 ICMA - IUPMA %very-good (pts)": icma.report.pct_very_good
        - iupma.report.pct_very_good,
        "T6 ICMA states": icma.num_states,
        "states ablation R2, 1 state": states.r_squared_series[0],
        "states ablation R2, 2 states": states.r_squared_series[1],
        "states ablation R2, 6 states": states.r_squared_series[5],
        "sample size %good, smallest sample": by_size[0].report.pct_good,
        "sample size %good, Prop. 4.1 size": sizes.nearest_to_recommended().report.pct_good,
        "sample size %good, largest sample": by_size[-1].report.pct_good,
        "plan quality % optimal, multi-states": plans.pct_optimal("multi-states"),
        "plan quality % optimal, one-state": plans.pct_optimal("one-state"),
        "plan quality regret, multi / one-state": plans.total_regret("multi-states")
        / plans.total_regret("one-state"),
        "plan quality chosen / oracle seconds, multi": plans.total_chosen_seconds(
            "multi-states"
        ) / plans.total_best_seconds,
    })

    violations = []
    for text in shape_violations(rows):
        where, _, check = text.partition(": ")
        # "static approach suspiciously good in dynamic env (42%)"
        violations.append((f"T5 {re.sub(r' [(][0-9]+%[)]$', '', check)}", where))
    for prefix, found in (
        ("T6", table6_violations(table6)),
        ("states ablation", states_ablation_violations(states)),
        ("sample size", sample_size_violations(sizes)),
        ("plan quality", plan_quality_violations(plans)),
    ):
        violations += [(f"{prefix} {check}", "") for check in found]
    return SeedResult(config.seed, claims, violations)


def run_seed_sweep(
    make_config: Callable[[int], ExperimentConfig], seeds: Sequence[int]
) -> list[SeedResult]:
    return [run_seed(make_config(seed)) for seed in seeds]


#: Every shape check the sweep evaluates, so one no seed breaks still
#: prints a 0.
SHAPE_CHECKS: tuple[str, ...] = (
    "T5 multi-states %good not above one-state",
    "T5 multi-states %very-good below one-state",
    "T5 multi-states does not dominate static",
    "T5 static approach suspiciously good in dynamic env",
    "T5 multi-states model fails the F-test",
    "T5 multi-states model found only one state",
    "T6 ICMA R2 below IUPMA's by more than 0.01",
    "T6 ICMA %good below IUPMA",
    "T6 ICMA %very-good more than 5 points below IUPMA",
    "T6 a model fails the F-test",
    "T6 ICMA's state count is outside 2-6",
    "states ablation R2 gains 0.15 or less from 1 state to the most",
    "states ablation SEE does not fall from 1 state to the most",
    "states ablation the first split buys at most 3x the last",
    "states ablation R2 dips by more than 0.02 as a state is added",
    "sample size the smallest sample finds more states than the largest",
    "sample size the largest sample's %good is below the smallest's",
    "sample size the last doubling buys 5+ points more %good than the first",
    "sample size the recommended size is 10+ %good points below the largest",
    "plan quality multi-states picks the optimal plan no more often",
    "plan quality multi-states regret is not under half of one-state's",
    "plan quality multi-states plans cost over 110% of the oracle's",
    "plan quality the best join site never changes",
)


def render_seed_sweep(results: list[SeedResult]) -> str:
    seeds = [r.seed for r in results]
    record = next((r for r in results if r.seed == RECORD_SEED), None)
    rows = []
    for claim, paper in CLAIMS:
        values = np.array([r.claims[claim] for r in results], dtype=float)
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        rows.append((
            claim,
            paper,
            "-" if record is None else f"{record.claims[claim]:.4g}",
            f"{median:.4g}",
            f"{q1:.4g} - {q3:.4g}",
            f"{values.min():.4g} - {values.max():.4g}",
        ))
    claims = format_table(
        ("claim", "paper", f"seed {RECORD_SEED}", "median", "IQR", "range"),
        rows,
        title=f"Claims over {len(seeds)} seeds ({seeds[0]}..{seeds[-1]})",
    )
    broken: dict[str, list[tuple[int, str]]] = {check: [] for check in SHAPE_CHECKS}
    for result in results:
        for check, where in result.violations:
            broken.setdefault(check, []).append((result.seed, where))
    checks = format_table(
        ("shape check", "seeds breaking it", "which"),
        [
            (
                check,
                len({seed for seed, _ in hits}),
                ", ".join(f"{seed} ({where})" if where else f"{seed}" for seed, where in hits)
                or "-",
            )
            for check, hits in broken.items()
        ],
        title="Shape checks (the benchmarks' assertions) per seed",
    )
    return f"{claims}\n\n{checks}"


def main() -> int:
    started = time.perf_counter()
    print("python -m repro.experiments.seed_sweep: quick preset\n")
    print(render_seed_sweep(run_seed_sweep(quick, SEEDS)))
    print(
        f"\nwall time: {time.perf_counter() - started:.1f} s "
        f"(Python {platform.python_version()}, numpy {np.__version__}, "
        f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
