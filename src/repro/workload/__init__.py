"""Synthetic databases, query generation, and canned experimental sites."""

from .querygen import (
    CLASS_SELECTIVITY,
    GenerationError,
    QueryGenerator,
    SelectivityRange,
)
from .scenarios import (
    ENVIRONMENT_KINDS,
    SCENARIO_CALM_RANGE,
    SCENARIO_KINDS,
    SCENARIO_SHIFTED_LEVEL,
    Site,
    install_scenario_trace,
    make_environment,
    make_site,
    scenario_shift_round,
)
from .tablegen import (
    COLUMN_NAMES,
    COLUMN_RANGES,
    PAPER_CARDINALITIES,
    TableSpec,
    WorkloadSpec,
    paper_workload,
    populate_database,
)

__all__ = [
    "CLASS_SELECTIVITY",
    "COLUMN_NAMES",
    "COLUMN_RANGES",
    "ENVIRONMENT_KINDS",
    "GenerationError",
    "PAPER_CARDINALITIES",
    "QueryGenerator",
    "SCENARIO_CALM_RANGE",
    "SCENARIO_KINDS",
    "SCENARIO_SHIFTED_LEVEL",
    "SelectivityRange",
    "Site",
    "TableSpec",
    "WorkloadSpec",
    "install_scenario_trace",
    "make_environment",
    "make_site",
    "paper_workload",
    "populate_database",
    "scenario_shift_round",
]
