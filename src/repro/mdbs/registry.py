"""Versioned cost-model registry: the training-side/serving-side seam.

The paper keeps derived multi-states cost models "in the MDBS catalog"
(§5) and prescribes periodic re-derivation when occasionally-changing
factors drift (§2).  Re-derivation only pays off if the serving side can
adopt a fresh model — and abandon it again when it turns out worse than
its predecessor.  This module supplies that lifecycle layer:

* :class:`ModelProvenance` — where a model artifact came from: the
  builder-config fingerprint, sample size, validation statistics
  (R², SEE), the simulated time of derivation, and the source
  state-determination algorithm;
* :class:`ModelVersion` — one immutable published artifact, numbered
  per ``(site, class)``;
* :class:`CostModelRegistry` — the versioned store itself, with an
  active-version pointer per ``(site, class)`` and
  ``publish`` / ``activate`` / ``rollback`` / ``history`` operations,
  plus a JSON payload format that round-trips every version.

The registry is the MDBS's only cost-model surface:
:attr:`~repro.mdbs.catalog.GlobalCatalog.registry` is the catalog's
model store, and every reader and writer goes to it directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .. import obs
from ..core.model import MultiStateCostModel
from ..core.strategy import DEFAULT_STRATEGY, model_form as _model_form


class CostModelRegistryError(KeyError):
    """A requested model, version, or rollback target does not exist, or
    an imported record is unreadable."""


def config_fingerprint(config: object) -> str:
    """A short stable fingerprint of a builder configuration.

    Dataclass ``repr`` output is deterministic for the plain
    numeric/enum fields a :class:`~repro.core.builder.BuilderConfig`
    holds, which makes it a serviceable canonical form without pulling
    in a schema.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ModelProvenance:
    """How one published model version was derived."""

    #: Simulated time at derivation (None when unknown, e.g. a model
    #: stored without provenance).
    derived_at: float | None = None
    #: State-determination algorithm ("iupma" | "icma" | "static").
    algorithm: str = "unknown"
    #: Number of sample queries behind the fit.
    sample_size: int = 0
    #: Validation statistics of the training fit.
    r_squared: float = float("nan")
    standard_error: float = float("nan")
    #: Fingerprint of the builder config that produced the model
    #: (:func:`config_fingerprint`); None when not derived in-process.
    config_hash: str | None = None
    #: What prompted the derivation — None for initial builds and
    #: manual publishes, else the :meth:`DriftEvent.describe` string of
    #: the lifecycle event (catalog change, period or drift rule) that
    #: forced it, so the registry records *why* each version exists.
    trigger: str | None = None
    #: Qualitative variables the model conditions on.  Every multi-states
    #: model carries the paper's contention state; sites simulating a
    #: memory hierarchy add the observed ``buffer_hit_state``.
    qualitative_variables: tuple[str, ...] = ("contention_state",)
    #: Model-form strategy the version was derived with (schema v3; see
    #: :mod:`repro.core.strategy`).  ``mlr.ols`` is the paper's batch form.
    model_form: str = DEFAULT_STRATEGY
    #: Total served-sample updates folded into this version online.
    online_updates: int = 0

    @classmethod
    def from_model(
        cls,
        model: MultiStateCostModel,
        derived_at: float | None = None,
        config_hash: str | None = None,
        trigger: str | None = None,
    ) -> "ModelProvenance":
        """Provenance recoverable from the model artifact itself."""
        stats = model.validation_stats()
        qualitative = tuple(
            model.metadata.get("qualitative_variables", ("contention_state",))
        )
        return cls(
            derived_at=derived_at,
            algorithm=model.algorithm,
            sample_size=int(stats["n_observations"]),
            r_squared=float(stats["r_squared"]),
            standard_error=float(stats["standard_error"]),
            config_hash=config_hash,
            trigger=trigger,
            qualitative_variables=qualitative,
            model_form=_model_form(model),
        )

    def to_dict(self) -> dict:
        return {
            "derived_at": self.derived_at,
            "algorithm": self.algorithm,
            "sample_size": self.sample_size,
            "r_squared": self.r_squared,
            "standard_error": self.standard_error,
            "config_hash": self.config_hash,
            "trigger": self.trigger,
            "qualitative_variables": list(self.qualitative_variables),
            "model_form": self.model_form,
            "online_updates": self.online_updates,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelProvenance":
        return cls(
            derived_at=payload.get("derived_at"),
            algorithm=payload.get("algorithm", "unknown"),
            sample_size=int(payload.get("sample_size", 0)),
            r_squared=float(payload.get("r_squared", float("nan"))),
            standard_error=float(payload.get("standard_error", float("nan"))),
            config_hash=payload.get("config_hash"),
            trigger=payload.get("trigger"),
            qualitative_variables=tuple(
                payload.get("qualitative_variables", ("contention_state",))
            ),
            model_form=payload["model_form"],
            online_updates=int(payload["online_updates"]),
        )


@dataclass(frozen=True)
class ModelVersion:
    """One published, immutable model artifact."""

    site: str
    class_label: str
    version: int
    model: MultiStateCostModel
    provenance: ModelProvenance

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "provenance": self.provenance.to_dict(),
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, site: str, class_label: str, payload: dict) -> "ModelVersion":
        return cls(
            site=site,
            class_label=class_label,
            version=int(payload["version"]),
            model=MultiStateCostModel.from_dict(payload["model"]),
            provenance=ModelProvenance.from_dict(payload.get("provenance", {})),
        )


class CostModelRegistry:
    """Versioned model artifacts with an active pointer per (site, class).

    ``publish`` appends a new version (and, by default, activates it,
    remembering the previously active version so ``rollback`` can
    restore it).  All read paths — and therefore the whole serving side
    of the MDBS — go through :meth:`active_model`.

    Serving-side consumers can :meth:`subscribe` to the write path: every
    publish / activate / rollback fires
    ``callback(action, site, class_label, version)`` after the change is
    applied, which is how the plan cache evicts exactly the entries a
    model-version change invalidates.
    """

    def __init__(self) -> None:
        self._versions: dict[tuple[str, str], list[ModelVersion]] = {}
        #: Active version number per key; absent = nothing active.
        self._active: dict[tuple[str, str], int] = {}
        #: Previously active version numbers, newest last (rollback stack).
        self._previous: dict[tuple[str, str], list[int]] = {}
        self._subscribers: list[Callable[[str, str, str, int], None]] = []

    # -- change notification ---------------------------------------------

    def subscribe(self, callback: Callable[[str, str, str, int], None]) -> None:
        """Call ``callback(action, site, class_label, version)`` after
        every write (actions: "publish", "activate", "rollback")."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[str, str, str, int], None]) -> None:
        """Stop notifying *callback* (no-op when not subscribed)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _notify(self, action: str, site: str, class_label: str, version: int) -> None:
        for callback in list(self._subscribers):
            callback(action, site, class_label, version)

    # -- write path ------------------------------------------------------

    def publish(
        self,
        site: str,
        model: MultiStateCostModel,
        provenance: ModelProvenance | None = None,
        activate: bool = True,
    ) -> ModelVersion:
        """Append *model* as the next version for its (site, class)."""
        key = (site, model.class_label)
        versions = self._versions.setdefault(key, [])
        number = versions[-1].version + 1 if versions else 1
        entry = ModelVersion(
            site=site,
            class_label=model.class_label,
            version=number,
            model=model,
            provenance=provenance or ModelProvenance.from_model(model),
        )
        versions.append(entry)
        obs.inc("mdbs.registry.published")
        self._notify("publish", site, model.class_label, number)
        if activate:
            self.activate(site, model.class_label, number)
        return entry

    def activate(self, site: str, class_label: str, version: int) -> ModelVersion:
        """Make *version* the one :meth:`active_model` serves."""
        key = (site, class_label)
        entry = self.version(site, class_label, version)
        current = self._active.get(key)
        if current is not None and current != version:
            self._previous.setdefault(key, []).append(current)
        self._active[key] = version
        self._notify("activate", site, class_label, version)
        return entry

    def rollback(self, site: str, class_label: str) -> ModelVersion:
        """Re-activate the previously active version.

        Falls back to the next-lower version number when no activation
        history exists (e.g. right after an import).
        """
        key = (site, class_label)
        current = self._active.get(key)
        if current is None:
            raise CostModelRegistryError(
                f"no active cost model for {class_label!r} at {site!r}"
            )
        stack = self._previous.get(key, [])
        if stack:
            target = stack.pop()
        else:
            older = [v.version for v in self._versions[key] if v.version < current]
            if not older:
                raise CostModelRegistryError(
                    f"no earlier version of {class_label!r} at {site!r} "
                    "to roll back to"
                )
            target = max(older)
        self._active[key] = target
        self._notify("rollback", site, class_label, target)
        return self.version(site, class_label, target)

    def record_online_update(
        self, site: str, class_label: str, version: int
    ) -> ModelVersion:
        """Count one served-sample update folded into *version* online.

        The online strategy (``mlr.rls``) mutates the served model's
        coefficients in place; the version's provenance counts those
        updates, and exports (schema v3) carry the count.  Counting
        fires no registry event: the version and form stay the same.
        """
        current = self.version(site, class_label, version)
        provenance = current.provenance
        updated = replace(
            current,
            provenance=replace(
                provenance, online_updates=provenance.online_updates + 1
            ),
        )
        versions = self._versions[(site, class_label)]
        for index, candidate in enumerate(versions):
            if candidate.version == version:
                versions[index] = updated
                break
        return updated

    # -- read path -------------------------------------------------------

    def has_model(self, site: str, class_label: str) -> bool:
        return (site, class_label) in self._active

    def active_version(self, site: str, class_label: str) -> ModelVersion:
        """The currently served version for (site, class)."""
        key = (site, class_label)
        try:
            number = self._active[key]
        except KeyError:
            raise CostModelRegistryError(
                f"no active cost model for {class_label!r} at {site!r}"
            ) from None
        return self.version(site, class_label, number)

    def active_model(self, site: str, class_label: str) -> MultiStateCostModel:
        return self.active_version(site, class_label).model

    def version(self, site: str, class_label: str, version: int) -> ModelVersion:
        for entry in self._versions.get((site, class_label), ()):
            if entry.version == version:
                return entry
        raise CostModelRegistryError(
            f"no version {version} of {class_label!r} at {site!r}"
        )

    def history(self, site: str, class_label: str) -> list[ModelVersion]:
        """Every published version for (site, class), oldest first."""
        return list(self._versions.get((site, class_label), ()))

    def active_models_at(self, site: str) -> list[MultiStateCostModel]:
        return [
            self.active_model(s, label)
            for (s, label) in sorted(self._active)
            if s == site
        ]

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._versions)

    def __iter__(self) -> Iterator[ModelVersion]:
        for key in sorted(self._versions):
            yield from self._versions[key]

    def __len__(self) -> int:
        """Total number of published versions across all keys."""
        return sum(len(v) for v in self._versions.values())

    # -- persistence -----------------------------------------------------

    def export(self) -> dict:
        """JSON-compatible payload carrying every version + active pointers."""
        return {
            f"{site}/{label}": {
                "active": self._active.get((site, label)),
                "versions": [
                    entry.to_dict() for entry in self._versions[(site, label)]
                ],
            }
            for (site, label) in sorted(self._versions)
        }

    def import_payload(self, payload: dict) -> int:
        """Load an :meth:`export` payload; returns the number of keys loaded.

        Every record is read and checked before anything is installed, so
        a bad record (a missing field, a non-finite coefficient, an
        ``active`` pointer naming no stored version) raises
        :class:`CostModelRegistryError` and leaves the registry as it was.
        Versions and active pointers round-trip; the rollback stack does
        not (after an import, :meth:`rollback` falls back to the
        next-lower version number).
        """
        staged = [_read_record(key, record) for key, record in payload.items()]
        for site, label, versions, active in staged:
            self._versions[(site, label)] = versions
            if active is not None:
                self._active[(site, label)] = active
                self._notify("activate", site, label, active)
            self._previous.pop((site, label), None)
        return len(staged)


def _read_record(
    key: str, record: dict
) -> tuple[str, str, list[ModelVersion], int | None]:
    """One exported ``site/class`` record as (site, class, versions, active);
    the active pointer defaults to the newest version."""
    site, _, label = key.partition("/")
    try:
        versions = [
            ModelVersion.from_dict(site, label, entry) for entry in record["versions"]
        ]
    except KeyError as exc:
        raise CostModelRegistryError(f"{key}: missing field {exc.args[0]!r}") from None
    versions.sort(key=lambda entry: entry.version)
    for entry in versions:
        if not np.all(np.isfinite(entry.model.coefficients)):
            raise CostModelRegistryError(
                f"{key}: version {entry.version} has non-finite 'coefficients'"
            )
    active = record.get("active")
    if active is None:
        return site, label, versions, versions[-1].version if versions else None
    if int(active) not in {entry.version for entry in versions}:
        raise CostModelRegistryError(f"{key}: 'active' names no stored version {active!r}")
    return site, label, versions, int(active)


def describe_registry(registry: CostModelRegistry) -> str:
    """A compact human-readable listing of the registry's contents."""
    lines = ["site/class            active  versions  algorithm  R²"]
    for site, label in registry.keys():
        entry = registry.active_version(site, label)
        versions = len(registry.history(site, label))
        lines.append(
            f"{site}/{label:<12} v{entry.version:<6} {versions:<9} "
            f"{entry.provenance.algorithm:<10} {entry.provenance.r_squared:.4f}"
        )
    return "\n".join(lines)
