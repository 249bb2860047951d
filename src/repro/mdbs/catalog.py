"""The MDBS global catalog.

"The cost model parameters are kept in the MDBS catalog and utilized
during query optimization" (§1).  The global catalog stores, per local
site: the globally visible schema facts (table cardinalities, tuple
lengths, column statistics, index definitions) and the derived
multi-states cost models, keyed by query class.

Cost models are held in a versioned
:class:`~repro.mdbs.registry.CostModelRegistry`; the flat
``store_cost_model`` / ``cost_model`` surface below serves the *active*
version of each ``(site, class)``, so pre-lifecycle callers keep working
unchanged while maintenance can publish, activate, and roll back
versions underneath them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.model import MultiStateCostModel
from .registry import (
    CostModelRegistry,
    CostModelRegistryError,
    ModelProvenance,
    ModelVersion,
)

#: Version of the cost-model payload this code writes and reads.  v3
#: added the model-form strategy and its online-update log to each
#: version's provenance (:class:`~repro.mdbs.registry.ModelProvenance`).
MODEL_SCHEMA_VERSION = 3


class GlobalCatalogError(KeyError):
    """A requested site, table, or cost model is not in the catalog."""


@dataclass
class TableFacts:
    """Globally visible facts about one local table."""

    site: str
    name: str
    cardinality: int
    tuple_length: int
    column_widths: dict[str, int]
    #: column -> (min, max, distinct_count); None values when unanalyzed.
    column_stats: dict[str, tuple] = field(default_factory=dict)
    indexed_columns: dict[str, str] = field(default_factory=dict)  # column -> kind
    clustered_on: str | None = None


class GlobalCatalog:
    """Site registry + schema facts + versioned cost-model store."""

    def __init__(self) -> None:
        self._sites: list[str] = []
        self._tables: dict[tuple[str, str], TableFacts] = {}
        self.registry = CostModelRegistry()

    # -- sites ---------------------------------------------------------

    def register_site(self, site: str) -> None:
        if site not in self._sites:
            self._sites.append(site)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)

    def _require_site(self, site: str) -> None:
        if site not in self._sites:
            raise GlobalCatalogError(f"unknown site {site!r}")

    # -- schema facts ------------------------------------------------------

    def register_table(self, facts: TableFacts) -> None:
        self._require_site(facts.site)
        self._tables[(facts.site, facts.name)] = facts

    def table(self, site: str, name: str) -> TableFacts:
        try:
            return self._tables[(site, name)]
        except KeyError:
            raise GlobalCatalogError(f"no table {name!r} at site {site!r}") from None

    # -- cost models --------------------------------------------------------

    def store_cost_model(self, site: str, model: MultiStateCostModel) -> None:
        """Publish *model* as a new active version (legacy flat surface)."""
        self.publish_cost_model(site, model)

    def publish_cost_model(
        self,
        site: str,
        model: MultiStateCostModel,
        provenance: ModelProvenance | None = None,
        activate: bool = True,
    ) -> ModelVersion:
        """Publish *model* into the registry; returns the new version."""
        self._require_site(site)
        return self.registry.publish(site, model, provenance, activate=activate)

    def cost_model(self, site: str, class_label: str) -> MultiStateCostModel:
        """The *active* model version for (site, class)."""
        try:
            return self.registry.active_model(site, class_label)
        except CostModelRegistryError:
            raise GlobalCatalogError(
                f"no cost model for class {class_label!r} at site {site!r}"
            ) from None

    def rollback_cost_model(self, site: str, class_label: str) -> ModelVersion:
        """Re-activate the previously active version for (site, class)."""
        try:
            return self.registry.rollback(site, class_label)
        except CostModelRegistryError as exc:
            raise GlobalCatalogError(str(exc)) from None

    def cost_models_at(self, site: str) -> list[MultiStateCostModel]:
        self._require_site(site)
        return self.registry.active_models_at(site)

    # -- persistence ---------------------------------------------------------

    def export_models(self) -> dict:
        """Serializable snapshot of every stored cost-model version."""
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "models": self.registry.export(),
        }

    def import_models(self, payload: dict) -> int:
        """Load an :meth:`export_models` payload; returns models loaded.

        Only the current ``schema_version`` is read.  Anything else —
        including the flat and v2 formats that predate it, which nothing
        writes any more — is rejected: silently misreading an unknown
        payload as models would corrupt the serving path.
        """
        version = payload.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise GlobalCatalogError(
                f"unsupported cost-model schema_version {version!r} "
                f"(this build reads {MODEL_SCHEMA_VERSION})"
            )
        records = payload["models"]
        for key in records:
            self.register_site(key.partition("/")[0])
        return self.registry.import_payload(records)
