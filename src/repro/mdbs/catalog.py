"""The MDBS global catalog.

"The cost model parameters are kept in the MDBS catalog and utilized
during query optimization" (§1).  The global catalog is the registered
sites, their globally visible schema facts (table cardinalities, tuple
lengths, column statistics, index definitions), and
:attr:`GlobalCatalog.registry`: the versioned
:class:`~repro.mdbs.registry.CostModelRegistry` holding the derived
multi-states cost models per ``(site, class)``.  The registry is the
only model surface; a missing model raises its
:class:`~repro.mdbs.registry.CostModelRegistryError`.  The catalog adds
the export/import payload around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .registry import CostModelRegistry, CostModelRegistryError

#: Version of the cost-model payload this code writes and reads.  v3
#: added the model-form strategy and its online-update count to each
#: version's provenance (:class:`~repro.mdbs.registry.ModelProvenance`).
#: Older v3 payloads also carry each model's coefficient covariance, which
#: nothing reads any more; the importer ignores it.
MODEL_SCHEMA_VERSION = 3


class GlobalCatalogError(KeyError):
    """An unknown site or table, or an unreadable model payload."""


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
    """Site registry + schema facts + the versioned cost-model registry."""

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

    def require_site(self, site: str) -> None:
        if site not in self._sites:
            raise GlobalCatalogError(f"unknown site {site!r}")

    # -- schema facts ------------------------------------------------------

    def register_table(self, facts: TableFacts) -> None:
        self.require_site(facts.site)
        self._tables[(facts.site, facts.name)] = facts

    def table(self, site: str, name: str) -> TableFacts:
        try:
            return self._tables[(site, name)]
        except KeyError:
            raise GlobalCatalogError(f"no table {name!r} at site {site!r}") from None

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
        payload as models would corrupt the serving path.  So is a
        record with a missing field, a non-finite coefficient or an
        ``active`` pointer naming no stored version; the error names the
        ``site/class`` and the field, and nothing is installed.
        """
        version = payload.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise GlobalCatalogError(
                f"unsupported cost-model schema_version {version!r} "
                f"(this build reads {MODEL_SCHEMA_VERSION})"
            )
        records = payload["models"]
        try:
            loaded = self.registry.import_payload(records)
        except CostModelRegistryError as exc:
            raise GlobalCatalogError(f"unreadable cost-model payload: {exc.args[0]}") from None
        for key in records:
            self.register_site(key.partition("/")[0])
        return loaded
