"""The model lifecycle: when a site's cost models are re-derived, and why.

The paper answers a changing environment twice (§2).  Frequently-changing
factors (contention) are the multi-states model's own job.  For the
occasionally-changing ones it re-derives "periodically or whenever a
significant change for the factors occurs", found "via checking the
local database catalog and/or system configuration files".  Served
estimates add a third reason: a drift rule over the server's
:class:`~repro.obs.quality.AccuracyTracker` sees a model go stale
before the catalog does.

Every re-derivation is decided here, and each has exactly one cause, a
:class:`~repro.obs.quality.DriftEvent` whose ``rule`` says which:

* ``catalog`` — a table added or dropped, a cardinality moved by more
  than :data:`CARDINALITY_DRIFT`, a tuple length, an index or the
  clustering changed since the site's baseline;
* ``period`` — the site's rebuild period elapsed since the class was
  last built;
* ``probe_escape`` — most recent probing costs fall outside the model's
  partitioned [Cmin, Cmax] range;
* ``good_band`` — fewer than :data:`GOOD_BAND_FLOOR_PCT` % of the recent
  estimates are within a factor of 2;
* ``bias`` — the recent estimates are off in one direction.

The first two make every class registered at the site due; the drift
rules make one class due.  :meth:`ModelLifecycle.rebuilds` runs one
pass, catalog and period first and then the drift rules, and yields
each rebuild with its event.  The MDBS server applies the effects
(:meth:`~repro.mdbs.server.MDBSServer.maintain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .. import obs
from ..core.builder import BuildOutcome, CostModelBuilder
from ..core.classification import QueryClass
from ..core.partition import ContentionStates
from ..engine.database import LocalDatabase
from ..engine.query import Query
from ..obs.quality import AccuracyTracker, DriftEvent
from .registry import CostModelRegistry

#: Relative cardinality change that is significant: small changes matter
#: only once they "accumulate to a certain degree" (§2).
CARDINALITY_DRIFT = 0.20
#: ``good_band`` fires below this share of recent estimates in the §5
#: "good" band (within a factor of 2).
GOOD_BAND_FLOOR_PCT = 50.0
#: ``probe_escape`` fires when this fraction of the recent probing costs,
#: and at least :data:`PROBE_MIN_READINGS` of them, escape the state range.
PROBE_ESCAPE_FRACTION = 0.5
PROBE_MIN_READINGS = 4
#: The rules of the catalog/period pass; the others are drift rules.
MAINTENANCE_RULES = ("catalog", "period")

#: ``queries(query_class, n)``: the *n* sample queries a (re)build runs.
QuerySource = Callable[[QueryClass, int], Sequence[Query]]


@dataclass(frozen=True)
class TableSnapshot:
    """The occasionally-changing facts about one table."""

    cardinality: int
    tuple_length: int
    indexed_columns: tuple[tuple[str, str], ...]  # (column, kind), sorted
    clustered_on: str | None


def catalog_snapshot(database: LocalDatabase) -> dict[str, TableSnapshot]:
    """A point-in-time image of a local database's catalog, by table."""
    catalog = database.catalog
    return {
        table.name: TableSnapshot(
            cardinality=table.cardinality,
            tuple_length=table.tuple_length,
            indexed_columns=tuple(
                sorted(
                    (index.column_name, index.kind.value)
                    for index in catalog.indexes_for(table.name)
                )
            ),
            clustered_on=table.clustered_on,
        )
        for table in catalog.tables()
    }


def catalog_changes(
    before: dict[str, TableSnapshot], after: dict[str, TableSnapshot]
) -> list[str]:
    """The significant changes from *before* to *after*, one line each."""
    changes = []
    for name in sorted(set(before) | set(after)):
        old, new = before.get(name), after.get(name)
        if old is None:
            changes.append(f"{name}: table_added (new table)")
            continue
        if new is None:
            changes.append(f"{name}: table_dropped (gone)")
            continue
        if old.cardinality > 0:
            drift = abs(new.cardinality - old.cardinality) / old.cardinality
            if drift > CARDINALITY_DRIFT:
                changes.append(
                    f"{name}: cardinality ({old.cardinality} -> "
                    f"{new.cardinality} ({drift:.0%} drift))"
                )
        elif new.cardinality > 0:
            changes.append(f"{name}: cardinality (0 -> non-empty)")
        if old.tuple_length != new.tuple_length:
            changes.append(
                f"{name}: schema (tuple length {old.tuple_length} -> "
                f"{new.tuple_length})"
            )
        if (
            old.indexed_columns != new.indexed_columns
            or old.clustered_on != new.clustered_on
        ):
            changes.append(
                f"{name}: indexes ({old.indexed_columns} -> {new.indexed_columns})"
            )
    return changes


@dataclass(frozen=True)
class DriftPolicy:
    """Thresholds of the drift rules at one site."""

    #: Accuracy rules read the most recent this-many class samples, so a
    #: long healthy history cannot mask a fresh regression.
    recent_window: int = 32
    #: Minimum recent samples before the accuracy rules may fire.
    min_samples: int = 12
    #: ``bias`` fires when |mean signed relative error| exceeds this;
    #: None leaves the rule off.
    bias_limit: float | None = 0.75
    #: Relative margin around [Cmin, Cmax] before a probe counts as
    #: escaped (clamping just past an edge is normal, §3.3).
    probe_margin: float = 0.10
    #: Minimum simulated seconds between drift events for the same
    #: (site, class): a rebuild needs time to take effect.
    cooldown_seconds: float = 0.0


def drift_event(
    policy: DriftPolicy,
    tracker: AccuracyTracker,
    site: str,
    label: str,
    states: ContentionStates,
    now: float,
) -> DriftEvent | None:
    """The first drift rule the (site, class) model with *states* breaks.

    Rules run in escalation order: probe-range escape (the earliest
    signal: the environment left the regime the model was sampled in),
    then the good-band floor, then sustained bias.  One event at most,
    since the remedy (a targeted re-derivation) is the same for all.
    """
    probes = tracker.probe_readings(site)
    if len(probes) >= PROBE_MIN_READINGS:
        low = states.cmin * (1.0 - policy.probe_margin)
        high = states.cmax * (1.0 + policy.probe_margin)
        escaped = sum(1 for cost, _ in probes if not low <= cost <= high)
        fraction = escaped / len(probes)
        if fraction >= PROBE_ESCAPE_FRACTION:
            return DriftEvent(
                site, label, "probe_escape", now,
                f"{escaped}/{len(probes)} recent probes outside "
                f"[{states.cmin:.4g}, {states.cmax:.4g}] "
                f"(±{policy.probe_margin:.0%})",
                {"escaped_fraction": fraction, "probes": len(probes)},
            )
    stats = tracker.recent_stats(site, label, policy.recent_window)
    if stats.count < policy.min_samples:
        return None
    if stats.pct_good < GOOD_BAND_FLOOR_PCT:
        return DriftEvent(
            site, label, "good_band", now,
            f"good-band {stats.pct_good:.1f}% < {GOOD_BAND_FLOOR_PCT:.1f}% "
            f"floor over last {stats.count} estimates",
            stats.to_dict(),
        )
    if policy.bias_limit is not None and abs(stats.bias) > policy.bias_limit:
        return DriftEvent(
            site, label, "bias", now,
            f"sustained bias {stats.bias:+.2f} beyond ±{policy.bias_limit:.2f} "
            f"over last {stats.count} estimates",
            stats.to_dict(),
        )
    return None


@dataclass
class _Registration:
    """What a class's rebuild consumes, and when it was last built."""

    query_class: QueryClass
    sample_count: int
    last_built_at: float = float("-inf")


@dataclass
class _SiteWatch:
    builder: CostModelBuilder
    queries: QuerySource
    rebuild_period_seconds: float | None
    drift: DriftPolicy | None
    baseline: dict[str, TableSnapshot]
    classes: dict[str, _Registration] = field(default_factory=dict)
    #: Simulated time of each class's last drift event (the cooldown);
    #: classes without a registration are watched too.
    last_drift_at: dict[str, float] = field(default_factory=dict)

    @property
    def now(self) -> float:
        return self.builder.database.environment.now


class ModelLifecycle:
    """Which (site, class) models are maintained, and when each is rebuilt.

    *registry* supplies the active models whose state ranges the
    ``probe_escape`` rule reads; *tracker* holds the accuracy windows the
    drift rules read and the event log every event lands in.
    """

    def __init__(self, registry: CostModelRegistry, tracker: AccuracyTracker) -> None:
        self.registry = registry
        self.tracker = tracker
        self._sites: dict[str, _SiteWatch] = {}

    def watch(
        self,
        site: str,
        builder: CostModelBuilder,
        queries: QuerySource,
        rebuild_period_seconds: float | None = None,
        drift: DriftPolicy | None = None,
    ) -> None:
        """Start (or restart) maintenance at *site*; its catalog as of now
        is the baseline.  *drift* None leaves the drift rules off there."""
        if rebuild_period_seconds is not None and rebuild_period_seconds <= 0:
            raise ValueError("rebuild_period_seconds must be positive")
        self._sites[site] = _SiteWatch(
            builder=builder,
            queries=queries,
            rebuild_period_seconds=rebuild_period_seconds,
            drift=drift,
            baseline=catalog_snapshot(builder.database),
        )

    def register(
        self,
        site: str,
        query_class: QueryClass,
        sample_count: int | None = None,
        build_now: bool = True,
    ) -> BuildOutcome | None:
        """Maintain *query_class* at a watched *site*; the initial build
        when *build_now*.  *sample_count* None sizes the sample by
        Proposition 4.1."""
        watch = self._sites[site]
        registration = _Registration(
            query_class=query_class,
            sample_count=sample_count or watch.builder.sample_size(query_class),
        )
        watch.classes[query_class.label] = registration
        return self._build(watch, registration, None) if build_now else None

    def rebuilds(self) -> Iterator[tuple[str, DriftEvent, BuildOutcome]]:
        """One pass: ``(site, event, outcome)`` per rebuild, in order.

        The catalog/period pass runs at every watched site first, then
        the drift rules.  Every event is logged and counted before its
        rebuild; an event for a class without a registration rebuilds
        nothing.  The caller publishes each outcome before resuming: the
        drift rules read the registry's active models.
        """
        for site in sorted(self._sites):
            watch = self._sites[site]
            due = self._due(site, watch)
            for registration, event in due:
                self._log(event)
                yield site, event, self._build(watch, registration, event)
            if due:
                # Further catalog drift is measured from here.
                watch.baseline = catalog_snapshot(watch.builder.database)
        for site in sorted(self._sites):
            watch = self._sites[site]
            if watch.drift is None:
                continue
            for event in self._drift_events(site, watch):
                self._log(event)
                registration = watch.classes.get(event.class_label)
                if registration is None:
                    # Detected but not repairable here (the class was
                    # derived out-of-band); the event is still logged.
                    continue
                yield site, event, self._build(watch, registration, event)

    # -- the decisions -----------------------------------------------------

    def _due(
        self, site: str, watch: _SiteWatch
    ) -> list[tuple[_Registration, DriftEvent]]:
        """Registered classes a catalog change or the period makes due."""
        changes = catalog_changes(
            watch.baseline, catalog_snapshot(watch.builder.database)
        )
        now, period = watch.now, watch.rebuild_period_seconds
        due = []
        for label, registration in watch.classes.items():
            if changes:
                rule, detail = "catalog", "; ".join(changes)
            elif period is not None and now - registration.last_built_at >= period:
                rule, detail = "period", f"rebuild period elapsed ({period:.0f}s)"
            else:
                continue
            due.append((registration, DriftEvent(site, label, rule, now, detail)))
        return due

    def _drift_events(self, site: str, watch: _SiteWatch) -> list[DriftEvent]:
        """One event at most per class with an active model at *site*,
        classes still cooling down from their last event excepted."""
        policy, now = watch.drift, watch.now
        events = []
        for label in sorted(
            label for s, label in self.registry.keys()
            if s == site and self.registry.has_model(s, label)
        ):
            last = watch.last_drift_at.get(label)
            if last is not None and now - last < policy.cooldown_seconds:
                continue
            states = self.registry.active_model(site, label).states
            event = drift_event(policy, self.tracker, site, label, states, now)
            if event is None:
                continue
            watch.last_drift_at[label] = now
            events.append(event)
        return events

    # -- recording and rebuilding --------------------------------------

    def _log(self, event: DriftEvent) -> None:
        self.tracker.record_drift_event(event)
        obs.inc("mdbs.drift.events")

    @staticmethod
    def _build(
        watch: _SiteWatch, registration: _Registration, event: DriftEvent | None
    ) -> BuildOutcome:
        query_class = registration.query_class
        with obs.span(
            "maintenance.rebuild",
            class_label=query_class.label,
            trigger=None if event is None else event.describe(),
        ):
            outcome = watch.builder.build(
                query_class,
                watch.queries(query_class, registration.sample_count),
            )
        obs.inc("maintenance.rebuilds")
        registration.last_built_at = watch.now
        return outcome
