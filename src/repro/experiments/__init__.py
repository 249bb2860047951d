"""Experiment harness regenerating every table and figure of the paper.

One module per experiment (see DESIGN.md's per-experiment index); the
benchmarks under ``benchmarks/`` are thin drivers over these runners.
"""

from .config import ExperimentConfig, full, quick, tiny
from .figure1 import FIGURE1_SQL, Figure1Result, run_figure1
from .figures4_9 import (
    FIGURE_LAYOUT,
    FigureResult,
    render_figure,
    run_all_figures,
    run_figure,
    tracking_error,
)
from .harness import (
    ClassExperimentResult,
    TestPoint,
    cache_stats,
    cache_summary,
    cached_class_experiment,
    collect_for_algorithm,
    run_class_experiment,
    stable_seed,
)
from .model_forms import ModelFormsResult, render_model_forms, run_model_forms
from .plan_quality import (
    PlanQualityResult,
    PlanQualityRound,
    render_plan_quality,
    render_probe_cache_quality,
    run_plan_quality,
    run_probe_cache_quality,
)
from .probing_estimation import (
    ProbingEstimationResult,
    render_probing_estimation,
    run_probing_estimation,
)
from .report import ascii_histogram, format_series, format_table
from .sample_size_ablation import (
    SampleSizeAblationResult,
    render_sample_size_ablation,
    run_sample_size_ablation,
)
from .states_ablation import (
    StatesAblationResult,
    render_states_ablation,
    run_states_ablation,
)
from .table4 import TABLE4_CLASSES, TABLE4_PROFILES, Table4Row, render_table4, run_table4
from .table5 import Table5Row, render_table5, run_table5, shape_violations
from .table6 import (
    Table6Result,
    Table6Row,
    render_figure10,
    render_table6,
    run_table6,
)

__all__ = [
    "ClassExperimentResult",
    "ExperimentConfig",
    "FIGURE1_SQL",
    "FIGURE_LAYOUT",
    "Figure1Result",
    "FigureResult",
    "ModelFormsResult",
    "PlanQualityResult",
    "PlanQualityRound",
    "ProbingEstimationResult",
    "SampleSizeAblationResult",
    "StatesAblationResult",
    "TABLE4_CLASSES",
    "TABLE4_PROFILES",
    "Table4Row",
    "Table5Row",
    "Table6Result",
    "Table6Row",
    "TestPoint",
    "ascii_histogram",
    "cache_stats",
    "cache_summary",
    "cached_class_experiment",
    "collect_for_algorithm",
    "format_series",
    "format_table",
    "full",
    "quick",
    "stable_seed",
    "tiny",
    "render_figure",
    "render_figure10",
    "render_model_forms",
    "render_plan_quality",
    "render_probe_cache_quality",
    "render_probing_estimation",
    "render_sample_size_ablation",
    "render_states_ablation",
    "render_table4",
    "render_table5",
    "render_table6",
    "run_all_figures",
    "run_class_experiment",
    "run_figure",
    "run_figure1",
    "run_model_forms",
    "run_plan_quality",
    "run_probe_cache_quality",
    "run_probing_estimation",
    "run_sample_size_ablation",
    "run_states_ablation",
    "run_table4",
    "run_table5",
    "run_table6",
]
