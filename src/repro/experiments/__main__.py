"""Regenerate every table and figure of the paper in one run.

Usage::

    python -m repro.experiments                  # quick preset (~2 s)
    python -m repro.experiments --preset full    # paper-sized preset (~4 s)
    python -m repro.experiments --seed 42        # different random universe
    python -m repro.experiments --only table4 --only table5
    python -m repro.experiments --trace-out trace.jsonl

Prints each artifact in order — Figure 1, Tables 4–6, Figures 4–10, the
state-count / model-form / probing-estimation / sample-size ablations,
the end-to-end plan-quality, probe-cache and drift-detection experiments
and the model-form race — with the paper's reference numbers alongside,
so the output can be diffed against EXPERIMENTS.md.  Artifacts go to
**stdout** and are a pure function of (preset, seed, ``--only``); every
diagnostic (memo summaries, wall time) goes to **stderr**.

``--trace-out PATH`` records a full observability trace of the run and
writes it as JSONL at exit, and ``--snapshot-out PATH`` writes the obs
snapshot; ``python -m repro.obs`` renders either.  Performance numbers
are not this module's job: see ``python -m bench``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from .. import obs
from . import drift_detection as drift_detection_mod
from .config import ExperimentConfig, full, quick, tiny
from .drift_detection import render_drift_detection, run_drift_detection
from .figure1 import FIGURE1_SQL, Figure1Result, run_figure1
from .figures4_9 import FigureResult, render_figure, run_all_figures, tracking_error
from .harness import cache_summary
from .model_forms import render_model_forms, run_model_forms
from .model_race import render_model_race, run_model_race
from .plan_quality import (
    render_plan_quality,
    render_probe_cache_quality,
    run_plan_quality,
    run_probe_cache_quality,
)
from .probing_estimation import render_probing_estimation, run_probing_estimation
from .report import format_series
from .sample_size_ablation import render_sample_size_ablation, run_sample_size_ablation
from .states_ablation import render_states_ablation, run_states_ablation
from .table4 import render_table4, run_table4
from .table5 import Table5Row, render_table5, run_table5, shape_violations
from .table6 import Table6Result, render_figure10, render_table6, run_table6

_PRESETS = {"tiny": tiny, "quick": quick, "full": full}


@dataclass(frozen=True)
class Artifact:
    """One row of the run: what ``--only`` calls it and how to print it."""

    name: str
    banner: str
    run: Callable[[ExperimentConfig], object]
    #: Turns ``run``'s result into the text under the banner.
    render: Callable[..., str]
    #: The paper's own numbers, printed verbatim after the text.
    reference: tuple[str, ...] = ()


def _render_figure1(fig1: Figure1Result) -> str:
    series = format_series(
        [float(p) for p in fig1.process_counts],
        {"cost_seconds": fig1.costs},
        x_label="concurrent_processes",
    )
    return (
        f"query: {FIGURE1_SQL}\n{series}\n"
        f"swing: {fig1.swing:.1f}x   (paper: 3.80 s -> 124.02 s, ~33x)"
    )


def _render_table5(rows: list[Table5Row]) -> str:
    return f"{render_table5(rows)}\nshape violations: {shape_violations(rows) or 'none'}"


def _render_figures4_9(figures: list[FigureResult]) -> str:
    chunks = []
    for figure in figures:
        series = figure.series()
        err_multi = tracking_error(series["observed"], series["multi_states"])
        err_one = tracking_error(series["observed"], series["one_state"])
        chunks.append(
            f"{render_figure(figure, max_rows=10)}\n"
            f"normalized RMS error: multi-states {err_multi:.3f} vs "
            f"one-state {err_one:.3f}\n"
        )
    return "\n".join(chunks)


def _render_table6(table6: Table6Result) -> str:
    return f"{render_table6(table6)}\n\n{render_figure10(table6)}"


#: Every artifact, in print order.  Names are the ``--only`` vocabulary;
#: adding an artifact is one row here.
ARTIFACTS: tuple[Artifact, ...] = (
    Artifact("figure1", "Figure 1: effect of dynamic factor on query cost",
             run_figure1, _render_figure1),
    Artifact("table4", "Table 4: multi-state cost models", run_table4, render_table4),
    Artifact("table5", "Table 5: statistics for cost models", run_table5, _render_table5),
    Artifact("figures4_9", "Figures 4-9: observed vs estimated costs for test queries",
             run_all_figures, _render_figures4_9),
    Artifact("table6", "Table 6 + Figure 10: IUPMA vs ICMA under clustered contention",
             run_table6, _render_table6),
    Artifact("states_ablation", "Ablation: number of contention states (§5 observation 4)",
             run_states_ablation, render_states_ablation,
             ("paper (G2/Oracle, 1..6 states): 0.7788 0.9636 0.9674 0.9899 0.9922",)),
    Artifact("model_forms", "Ablation: qualitative model forms (paper Table 2 / §3.2)",
             run_model_forms, render_model_forms),
    Artifact("probing_estimation", "Ablation: observed vs estimated probing costs (§3.3 eq. (2))",
             run_probing_estimation, render_probing_estimation),
    Artifact("plan_quality", "End-to-end: plan quality with multi-states vs one-state models",
             run_plan_quality, render_plan_quality),
    Artifact("probe_cache", "End-to-end: plan quality with fresh vs TTL-cached probing",
             run_probe_cache_quality, render_probe_cache_quality),
    Artifact("sample_size_ablation", "Ablation: sample size (Proposition 4.1 / eq. (4))",
             run_sample_size_ablation, render_sample_size_ablation),
    Artifact("drift_detection", "End-to-end: drift detection -> targeted re-derivation",
             run_drift_detection, render_drift_detection),
    Artifact("model_race", "Race: multi-states OLS re-derivation vs the online RLS form",
             run_model_race, render_model_race),
)

#: ``PATH`` outputs written at exit; each path is checked before the run.
_OUTPUTS: tuple[tuple[str, str], ...] = (
    ("--trace-out", "enable tracing and write the JSONL trace here at exit"),
    ("--snapshot-out", "write a combined obs snapshot (metrics + accuracy windows + model "
                       "versions) at exit, for `python -m repro.obs`"),
)


def _note(message: str) -> None:
    """Diagnostics go to stderr so stdout stays a pure artifact stream."""
    print(message, file=sys.stderr)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--preset",
        choices=sorted(_PRESETS),
        default="quick",
        help="experiment scale (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--only",
        action="append",
        choices=[artifact.name for artifact in ARTIFACTS],
        metavar="BENCH",
        help="run only the named bench (repeatable)",
    )
    outputs = [
        parser.add_argument(option, metavar="PATH", default=None, help=text)
        for option, text in _OUTPUTS
    ]
    args = parser.parse_args(argv)
    for output in outputs:
        path = getattr(args, output.dest)
        if not path:
            continue
        # Fail now, not after the run, if the path is bad.
        try:
            with open(path, "w"):
                pass
        except OSError as exc:
            parser.error(f"{output.option_strings[0]} {path}: {exc}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    make_config = _PRESETS[args.preset]
    config = make_config(args.seed) if args.seed is not None else make_config()

    tracer = obs.enable() if args.trace_out else None
    started = time.time()
    print(
        f"preset={args.preset} seed={config.seed} "
        f"scale={config.scale} train={config.unary_train}/{config.join_train} "
        f"test={config.test_count}"
    )
    try:
        for artifact in ARTIFACTS:
            if args.only and artifact.name not in args.only:
                continue
            print(f"\n{'=' * 72}\n{artifact.banner}\n{'=' * 72}")
            print(artifact.render(artifact.run(config)))
            for line in artifact.reference:
                print(line)
            _note(f"[{artifact.name} done] {cache_summary()}")
    finally:
        if args.snapshot_out:
            obs.write_snapshot(
                args.snapshot_out,
                model_registry=drift_detection_mod.LAST_MODEL_REGISTRY,
            )
            _note(f"\nwrote obs snapshot to {args.snapshot_out}")
        if tracer is not None:
            count = obs.write_jsonl(tracer, args.trace_out)
            _note(f"\nwrote {count} spans to {args.trace_out}")
            obs.disable()

    _note(f"\ntotal wall time: {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
