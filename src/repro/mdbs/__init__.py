"""The multidatabase layer: agents, global catalog, global optimization.

Mirrors the paper's CORDS-MDBS architecture (Figure 3): a global server
talks to autonomous local DBSs through per-site MDBS agents; derived cost
models live in the global catalog — as versioned artifacts in a
:class:`~repro.mdbs.registry.CostModelRegistry` — and drive inter-site
plan choice, with probing centralized in the
:class:`~repro.mdbs.probing_service.ProbingService`.
"""

from .agent import MDBSAgent
from .catalog import GlobalCatalog, GlobalCatalogError, MODEL_SCHEMA_VERSION, TableFacts
from .gquery import ComponentQueries, GlobalJoinQuery, decompose
from .network import NetworkModel
from .optimizer import (
    CostEstimate,
    GlobalPlan,
    GlobalQueryOptimizer,
    estimate_join_variables,
    estimate_unary_variables,
    facts_to_statistics,
)
from .probing_service import ProbeReading, ProbingService
from .registry import (
    CostModelRegistry,
    CostModelRegistryError,
    ModelProvenance,
    ModelVersion,
    config_fingerprint,
    describe_registry,
)
from .server import GlobalExecution, MDBSServer, StepTiming

__all__ = [
    "ComponentQueries",
    "CostEstimate",
    "CostModelRegistry",
    "CostModelRegistryError",
    "GlobalCatalog",
    "GlobalCatalogError",
    "GlobalExecution",
    "GlobalJoinQuery",
    "GlobalPlan",
    "GlobalQueryOptimizer",
    "MDBSAgent",
    "MDBSServer",
    "MODEL_SCHEMA_VERSION",
    "ModelProvenance",
    "ModelVersion",
    "NetworkModel",
    "ProbeReading",
    "ProbingService",
    "StepTiming",
    "TableFacts",
    "config_fingerprint",
    "decompose",
    "describe_registry",
    "estimate_join_variables",
    "estimate_unary_variables",
    "facts_to_statistics",
]
