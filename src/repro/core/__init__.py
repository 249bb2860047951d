"""The paper's contribution: the multi-states query sampling method.

Develops regression cost models with a *qualitative variable* indicating
discrete system contention states, for local database systems in a
dynamic multidatabase environment.
"""

from .builder import ALGORITHMS, BuildOutcome, BuilderConfig, CostModelBuilder
from .classification import (
    ALL_CLASSES,
    G1,
    G2,
    G3,
    G4,
    G5,
    G6,
    GC,
    QueryClass,
    class_for_method,
    classify,
)
from .clustering import Cluster, agglomerate, cluster_extents, merge_small_clusters
from .fitting import QualitativeFit, fit_qualitative
from .icma import clustered_partitioner, determine_states_icma
from .iupma import (
    PhaseRecord,
    StateDeterminationResult,
    StateHistory,
    StatesConfig,
    determine_states,
    determine_states_iupma,
)
from .merging import (
    DEFAULT_MERGE_THRESHOLD,
    MergeRecord,
    max_relative_difference,
    merge_adjustment,
    relative_error as coefficient_relative_error,
)
from .model import MultiStateCostModel
from .partition import ContentionStates, partition_from_intervals, uniform_partition
from .probing import ProbingCostEstimator, ProbingQuery, default_probing_query
from .qualitative import (
    ModelForm,
    adjusted_coefficients,
    build_design,
    design_row,
    encode_indicators,
    num_parameters,
    term_names,
)
from .report import derivation_report
from .sampling import (
    SamplingPlan,
    collect_observations,
    minimum_observations,
    recommended_sample_size,
)
from .selection import SelectionConfig, SelectionResult, SelectionStep, select_variables
from .strategy import (
    DEFAULT_STRATEGY,
    STRATEGY_NAMES,
    CostModelStrategy,
    OLSStrategy,
    OnlineSample,
    RLSStrategy,
    model_form,
    resolve_strategy,
    strategy_for,
)
from .validation import (
    ValidationReport,
    is_acceptable,
    is_good,
    is_very_good,
    relative_error,
    validate_model,
)
from .variables import (
    JOIN_VARIABLES,
    Observation,
    Sample,
    SampleRecorder,
    UNARY_VARIABLES,
    VariableSet,
    extract_variables,
    variable_values,
)

__all__ = [
    "ALGORITHMS",
    "ALL_CLASSES",
    "BuildOutcome",
    "BuilderConfig",
    "Cluster",
    "ContentionStates",
    "CostModelBuilder",
    "CostModelStrategy",
    "DEFAULT_MERGE_THRESHOLD",
    "DEFAULT_STRATEGY",
    "G1",
    "G2",
    "G3",
    "G4",
    "G5",
    "G6",
    "GC",
    "JOIN_VARIABLES",
    "MergeRecord",
    "ModelForm",
    "MultiStateCostModel",
    "OLSStrategy",
    "Observation",
    "OnlineSample",
    "PhaseRecord",
    "ProbingCostEstimator",
    "ProbingQuery",
    "QualitativeFit",
    "QueryClass",
    "RLSStrategy",
    "STRATEGY_NAMES",
    "Sample",
    "SampleRecorder",
    "SamplingPlan",
    "SelectionConfig",
    "SelectionResult",
    "SelectionStep",
    "StateDeterminationResult",
    "StateHistory",
    "StatesConfig",
    "UNARY_VARIABLES",
    "ValidationReport",
    "VariableSet",
    "adjusted_coefficients",
    "agglomerate",
    "build_design",
    "class_for_method",
    "classify",
    "cluster_extents",
    "clustered_partitioner",
    "coefficient_relative_error",
    "collect_observations",
    "default_probing_query",
    "derivation_report",
    "design_row",
    "determine_states",
    "determine_states_icma",
    "determine_states_iupma",
    "encode_indicators",
    "extract_variables",
    "fit_qualitative",
    "is_acceptable",
    "is_good",
    "is_very_good",
    "max_relative_difference",
    "merge_adjustment",
    "merge_small_clusters",
    "minimum_observations",
    "model_form",
    "num_parameters",
    "partition_from_intervals",
    "recommended_sample_size",
    "relative_error",
    "resolve_strategy",
    "select_variables",
    "strategy_for",
    "term_names",
    "uniform_partition",
    "validate_model",
    "variable_values",
]
