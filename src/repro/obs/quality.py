"""Model-quality telemetry: estimate-vs-actual accuracy and its events.

The paper validates derived cost models *offline* with R²/SEE and the
§5 error bands, but a deployed model rots silently as the local
environment drifts away from the regime it was sampled under (§1's 30x
cost swings).  This module records and renders what serving sees; it
decides nothing (the lifecycle rules are :mod:`repro.mdbs.lifecycle`):

* :class:`AccuracyTracker` — rolling windows of
  ``(predicted_seconds, actual_seconds)`` pairs keyed by
  ``(site, query_class, contention_state)``, maintaining the paper's §5
  bands (% of estimates with relative error ≤ 30%, % within a factor of
  2), mean relative error, and bias (signed mean relative error), plus
  per-site probing-cost readings and the log of every
  :class:`DriftEvent` that caused a re-derivation.  Each recording
  counts one ``mdbs.accuracy.samples`` in the global metrics registry;
  the windows reach the obs snapshot through
  :meth:`AccuracyTracker.snapshot`;
* :func:`accuracy_table` — a per-key renderer of those windows (the
  online counterpart of the Table-5 validation rows);
* :func:`merge_accuracy_snapshots` — one fleet-wide view of several
  trackers' snapshots.

Band thresholds intentionally mirror
:mod:`repro.core.validation` (the offline validator); the constants are
restated here so the observability substrate stays import-light, and a
test pins the two modules together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .metrics import get_registry

__all__ = [
    "AccuracySample",
    "AccuracyTracker",
    "AccuracyWindow",
    "DriftEvent",
    "WindowStats",
    "accuracy_table",
    "get_tracker",
    "merge_accuracy_snapshots",
    "merge_window_stats",
    "set_tracker",
]

#: "Very good" (§5): relative error within 30%.
VERY_GOOD_RELATIVE_ERROR = 0.30
#: "Good" (§5): within one time larger or smaller (a factor of 2).
GOOD_FACTOR = 2.0
#: Samples an :class:`AccuracyTracker` window holds, per state and per class.
WINDOW_SIZE = 128

_INF = float("inf")
_new_tuple = tuple.__new__


#: A window's state key: the paper's contention-state ordinal, or a
#: ``(contention_state, buffer_hit_state)`` composite when the site also
#: tracks the qualitative buffer-hit variable.
StateKey = "int | tuple"


def _state_sort_key(state) -> tuple[int, int, str]:
    """Total order over plain, composite, and aggregate (None) states."""
    if state is None:
        return (2, 0, "")
    if isinstance(state, (tuple, list)):
        first = int(state[0]) if state else 0
        return (1, first, "/".join(str(part) for part in state[1:]))
    return (0, int(state), "")


def _state_label(state) -> str:
    """Render a state key for tables: ``s1``, ``s1/warm``, or ``*``."""
    if state is None:
        return "*"
    if isinstance(state, (tuple, list)):
        return "s" + "/".join(str(part) for part in state)
    return f"s{state}"


def _classify(predicted: float, actual: float, at_time: float) -> tuple:
    """One sample's :class:`AccuracySample` fields as a plain tuple.

    The §5 error terms and bands in one straight-line pass.  Windows
    hold these plain tuples: building the NamedTuple costs a second
    allocation per recorded plan step (tests/obs/test_overhead), and
    tests/obs/test_quality pins every field to core.validation.
    """
    predicted = float(predicted)
    actual = float(actual)
    if actual == 0.0:
        rel = signed = _INF if predicted != 0.0 else 0.0
    else:
        # Rounding is sign-symmetric, so |d / m| == |d| / m exactly.
        signed = (predicted - actual) / abs(actual)
        rel = abs(signed)
    if actual <= 0.0:
        good = predicted == actual
    elif predicted <= 0.0:
        good = False
    else:
        good = predicted / actual <= GOOD_FACTOR and actual / predicted <= GOOD_FACTOR
    return (predicted, actual, float(at_time), rel, signed,
            rel <= VERY_GOOD_RELATIVE_ERROR, good)


class AccuracySample(NamedTuple):
    """One estimate checked against reality."""

    predicted: float
    actual: float
    at_time: float
    relative_error: float
    signed_error: float
    very_good: bool
    good: bool

    @classmethod
    def make(cls, predicted: float, actual: float, at_time: float) -> "AccuracySample":
        return _new_tuple(cls, _classify(predicted, actual, at_time))


@dataclass(frozen=True)
class WindowStats:
    """Aggregate view of one accuracy window (or a merge of several)."""

    count: int
    pct_very_good: float
    pct_good: float
    mean_relative_error: float
    bias: float
    mean_predicted: float
    mean_actual: float

    def to_dict(self) -> dict:
        return {
            "n": self.count,
            "very_good_pct": self.pct_very_good,
            "good_pct": self.pct_good,
            "mean_rel_err": self.mean_relative_error,
            "bias": self.bias,
            "mean_predicted": self.mean_predicted,
            "mean_actual": self.mean_actual,
        }


_EMPTY_STATS = WindowStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _push(windows: "tuple[AccuracyWindow, ...]", sample: tuple) -> None:
    """Append *sample* (:class:`AccuracySample` fields) to each window,
    adjusting its running sums.

    The serving path lands every recorded plan step in two windows, so
    the sample is unpacked once for both and the eviction arithmetic is
    inlined (tests/obs/test_overhead budgets this path).
    """
    predicted, actual, _, rel, signed, very_good, good = sample
    for window in windows:
        samples = window._samples
        samples.append(sample)
        if len(samples) > window.window_size:
            e_predicted, e_actual, _, e_rel, e_signed, e_very_good, e_good = (
                samples.popleft()
            )
            window._n_very_good += very_good - e_very_good
            window._n_good += good - e_good
            window._sum_rel = window._sum_rel + rel - e_rel
            window._sum_signed = window._sum_signed + signed - e_signed
            window._sum_predicted = window._sum_predicted + predicted - e_predicted
            window._sum_actual = window._sum_actual + actual - e_actual
        else:
            window._n_very_good += very_good
            window._n_good += good
            window._sum_rel += rel
            window._sum_signed += signed
            window._sum_predicted += predicted
            window._sum_actual += actual


class AccuracyWindow:
    """A bounded rolling window of accuracy samples with O(1) stats.

    Band membership and error terms are classified once at insertion;
    running sums are adjusted on eviction, so the hot-path cost of a
    recording is constant regardless of the window size.
    """

    __slots__ = (
        "window_size", "_samples", "_n_very_good", "_n_good",
        "_sum_rel", "_sum_signed", "_sum_predicted", "_sum_actual",
    )

    def __init__(self, window_size: int = WINDOW_SIZE) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        #: :class:`AccuracySample` field tuples, oldest first.
        self._samples: deque[tuple] = deque()
        self._n_very_good = 0
        self._n_good = 0
        self._sum_rel = 0.0
        self._sum_signed = 0.0
        self._sum_predicted = 0.0
        self._sum_actual = 0.0

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, predicted: float, actual: float, at_time: float = 0.0) -> AccuracySample:
        sample = AccuracySample.make(predicted, actual, at_time)
        _push((self,), sample)
        return sample

    def stats(self) -> WindowStats:
        n = len(self._samples)
        if n == 0:
            return _EMPTY_STATS
        return WindowStats(
            count=n,
            pct_very_good=100.0 * self._n_very_good / n,
            pct_good=100.0 * self._n_good / n,
            mean_relative_error=self._sum_rel / n,
            bias=self._sum_signed / n,
            mean_predicted=self._sum_predicted / n,
            mean_actual=self._sum_actual / n,
        )

    def recent_stats(self, k: int) -> WindowStats:
        """Stats over the most recent *k* samples only (drift rules)."""
        if k <= 0:
            raise ValueError("k must be positive")
        recent = list(self._samples)[-k:]
        n = len(recent)
        if n == 0:
            return _EMPTY_STATS
        predicted, actual, _, rel, signed, very_good, good = zip(*recent)
        return WindowStats(
            count=n,
            pct_very_good=100.0 * sum(very_good) / n,
            pct_good=100.0 * sum(good) / n,
            mean_relative_error=sum(rel) / n,
            bias=sum(signed) / n,
            mean_predicted=sum(predicted) / n,
            mean_actual=sum(actual) / n,
        )


class AccuracyTracker:
    """Estimate-vs-actual accuracy keyed by (site, query class, state).

    Two window levels are maintained per recording:

    * a **state** window keyed ``(site, class_label, state)`` — the rows
      of :func:`accuracy_table`, the online Table-5;
    * a **class** window keyed ``(site, class_label)`` — the aggregate
      the drift rules read, since rebuild decisions are per class, not
      per state.

    Probing-cost readings are tracked per site (fed by the
    :class:`~repro.mdbs.probing_service.ProbingService`), so drift rules
    can notice the probing distribution escaping a model's partitioned
    [Cmin, Cmax] range before the accuracy windows fill with misses.

    Each recording counts ``mdbs.accuracy.samples`` in the global
    metrics registry, the dashboard's "accuracy samples" total; the
    windows reach the dashboard through :meth:`snapshot`.  Pass
    ``export=False`` to keep a tracker private (e.g. inside tests).
    """

    def __init__(self, probe_window_size: int = 64, export: bool = True) -> None:
        self.probe_window_size = probe_window_size
        self.export = export
        #: Third key element is a plain or composite state (see record()).
        #: Each state window is stored beside its class window, so a
        #: recording finds both with one lookup; :meth:`reset` drops a
        #: (site, class) from both dicts at once, which keeps pairs current.
        self._state_windows: dict[tuple, tuple[AccuracyWindow, AccuracyWindow]] = {}
        self._class_windows: dict[tuple[str, str], AccuracyWindow] = {}
        self._probes: dict[str, deque[tuple[float, float]]] = {}
        #: The event behind every re-derivation (and every drift event
        #: for a class nobody maintains), oldest first.
        self.drift_events: list[DriftEvent] = []

    # -- recording (the serving hot path) --------------------------------

    def record(
        self,
        site: str,
        class_label: str,
        state,
        predicted: float,
        actual: float,
        at_time: float = 0.0,
    ) -> None:
        """Check one cost estimate against its observed outcome.

        *state* is the contention-state ordinal, or a composite
        ``(contention_state, buffer_hit_state)`` tuple at sites that
        track the buffer-hit qualitative variable — any hashable key
        works; rendering and sorting handle both shapes.
        """
        # Classify once; both windows share the sample tuple.
        sample = _classify(predicted, actual, at_time)
        key = (site, class_label, state)
        windows = self._state_windows.get(key)
        if windows is None:
            class_window = self._class_windows.get((site, class_label))
            if class_window is None:
                class_window = AccuracyWindow()
                self._class_windows[(site, class_label)] = class_window
            windows = (AccuracyWindow(), class_window)
            self._state_windows[key] = windows
        _push(windows, sample)
        if self.export:
            get_registry().inc("mdbs.accuracy.samples")

    def record_probe(self, site: str, cost: float, at_time: float = 0.0) -> None:
        """Note one probing-cost reading for *site* (drift rule input)."""
        window = self._probes.get(site)
        if window is None:
            window = deque(maxlen=self.probe_window_size)
            self._probes[site] = window
        window.append((float(cost), float(at_time)))

    def record_drift_event(self, event: "DriftEvent") -> None:
        self.drift_events.append(event)

    # -- inspection -------------------------------------------------------

    def keys(self) -> list[tuple]:
        return sorted(
            self._state_windows,
            key=lambda k: (k[0], k[1], _state_sort_key(k[2])),
        )

    def stats(self, site: str, class_label: str, state=None) -> WindowStats:
        """Window stats for one key; ``state=None`` = the class aggregate."""
        if state is None:
            window = self._class_windows.get((site, class_label))
        else:
            windows = self._state_windows.get((site, class_label, state))
            window = windows[0] if windows is not None else None
        return window.stats() if window is not None else _EMPTY_STATS

    def recent_stats(self, site: str, class_label: str, k: int) -> WindowStats:
        window = self._class_windows.get((site, class_label))
        return window.recent_stats(k) if window is not None else _EMPTY_STATS

    def probe_readings(self, site: str) -> list[tuple[float, float]]:
        """Recent (cost, at_time) probing readings for *site*."""
        return list(self._probes.get(site, ()))

    def sample_count(self) -> int:
        return sum(len(w) for w in self._class_windows.values())

    def reset(self, site: str | None = None, class_label: str | None = None) -> None:
        """Drop windows (all, one site's, or one (site, class)'s).

        The MDBS server calls this after a drift-triggered rebuild
        so post-rebuild accuracy is measured fresh, not diluted by the
        stale model's misses; the site's probe window resets too, since
        the new model's state ranges re-anchor what "in range" means.
        """
        def keep(key_site: str, key_label: str) -> bool:
            if site is not None and key_site != site:
                return True
            if class_label is not None and key_label != class_label:
                return True
            return False

        self._state_windows = {
            k: w for k, w in self._state_windows.items() if keep(k[0], k[1])
        }
        self._class_windows = {
            k: w for k, w in self._class_windows.items() if keep(k[0], k[1])
        }
        if site is None:
            self._probes.clear()
        else:
            self._probes.pop(site, None)

    def snapshot(self) -> dict:
        """A JSON-serializable dump of every window's current stats."""
        state_items = sorted(
            self._state_windows.items(),
            key=lambda item: (item[0][0], item[0][1], _state_sort_key(item[0][2])),
        )
        class_items = sorted(self._class_windows.items())
        probe_items = sorted(self._probes.items())
        events = list(self.drift_events)
        rows = []
        for (site, label, state), (window, _) in state_items:
            rows.append(
                {"site": site, "class": label, "state": state}
                | window.stats().to_dict()
            )
        for (site, label), window in class_items:
            rows.append(
                {"site": site, "class": label, "state": None}
                | window.stats().to_dict()
            )
        probes = {
            site: {
                "n": len(readings),
                "last": readings[-1][0] if readings else None,
                "min": min(c for c, _ in readings) if readings else None,
                "max": max(c for c, _ in readings) if readings else None,
            }
            for site, readings in probe_items
        }
        return {
            "rows": rows,
            "probes": probes,
            "drift_events": [event.to_dict() for event in events],
        }


def accuracy_table(source: AccuracyTracker | dict) -> str:
    """Render accuracy windows as an aligned table (online Table 5).

    Accepts a live :class:`AccuracyTracker` or a
    :meth:`AccuracyTracker.snapshot` payload (as the CLI reads back
    from disk).  Rows sort by (site, class, state); the per-class
    aggregate renders as state ``*`` after its per-state rows.
    """
    snapshot = source.snapshot() if isinstance(source, AccuracyTracker) else source
    rows = snapshot.get("rows", [])
    if not rows:
        return "(no accuracy samples recorded)"
    headers = (
        "site/class/state", "n", "very_good%", "good%",
        "mean_rel_err", "bias", "pred_s", "obs_s",
    )
    rendered = []
    ordered = sorted(
        rows,
        key=lambda r: (r["site"], r["class"], _state_sort_key(r["state"])),
    )
    for row in ordered:
        state = _state_label(row["state"])
        rendered.append(
            (
                f"{row['site']}/{row['class']}/{state}",
                str(row["n"]),
                f"{row['very_good_pct']:.1f}",
                f"{row['good_pct']:.1f}",
                f"{row['mean_rel_err']:.3f}",
                f"{row['bias']:+.3f}",
                f"{row['mean_predicted']:.4f}",
                f"{row['mean_actual']:.4f}",
            )
        )
    widths = [
        max(len(h), *(len(r[i]) for r in rendered))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(
            h.ljust(w) if i == 0 else h.rjust(w)
            for i, (h, w) in enumerate(zip(headers, widths))
        )
    ]
    lines.append("-" * len(lines[0]))
    for row in rendered:
        lines.append(
            "  ".join(
                c.ljust(w) if i == 0 else c.rjust(w)
                for i, (c, w) in enumerate(zip(row, widths))
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Lifecycle events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftEvent:
    """Why one (site, class) model is re-derived: the cause of one rebuild.

    *rule* is ``catalog`` or ``period`` (§2's occasionally-changing
    factors) or one of the drift rules over the accuracy windows,
    ``probe_escape``, ``good_band`` and ``bias``.  The rules themselves
    live in :mod:`repro.mdbs.lifecycle`; this module records and renders
    the events.
    """

    site: str
    class_label: str
    rule: str
    at_time: float
    detail: str
    stats: dict = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"drift[{self.rule}] {self.site}/{self.class_label} "
            f"@t={self.at_time:.0f}: {self.detail}"
        )

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "class": self.class_label,
            "rule": self.rule,
            "at_time": self.at_time,
            "detail": self.detail,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DriftEvent":
        return cls(
            site=payload["site"],
            class_label=payload["class"],
            rule=payload["rule"],
            at_time=float(payload["at_time"]),
            detail=payload.get("detail", ""),
            stats=dict(payload.get("stats", {})),
        )


# ---------------------------------------------------------------------------
# The global tracker (mirrors the global metrics registry)
# ---------------------------------------------------------------------------

_active_tracker = AccuracyTracker()


def get_tracker() -> AccuracyTracker:
    return _active_tracker


def set_tracker(tracker: AccuracyTracker) -> AccuracyTracker:
    """Install *tracker* globally; returns the previous one."""
    global _active_tracker
    previous = _active_tracker
    _active_tracker = tracker
    return previous


def merge_window_stats(stats: Iterable[WindowStats]) -> WindowStats:
    """Sample-weighted merge of several :class:`WindowStats`.

    Exact for every mean-based field; the band percentages are exact too
    because each window's percentage is re-weighted by its own sample
    count.  (Windows are *rolling*, so merging two windows that both
    evicted samples approximates the union — the same caveat any
    cross-process aggregation of bounded windows carries.)
    """
    items = [s for s in stats if s.count]
    n = sum(s.count for s in items)
    if n == 0:
        return _EMPTY_STATS
    return WindowStats(
        count=n,
        pct_very_good=sum(s.pct_very_good * s.count for s in items) / n,
        pct_good=sum(s.pct_good * s.count for s in items) / n,
        mean_relative_error=sum(s.mean_relative_error * s.count for s in items) / n,
        bias=sum(s.bias * s.count for s in items) / n,
        mean_predicted=sum(s.mean_predicted * s.count for s in items) / n,
        mean_actual=sum(s.mean_actual * s.count for s in items) / n,
    )


def _stats_from_row(row: Mapping) -> WindowStats:
    """Rebuild a :class:`WindowStats` from a snapshot row's stat fields."""
    return WindowStats(
        count=int(row["n"]),
        pct_very_good=float(row["very_good_pct"]),
        pct_good=float(row["good_pct"]),
        mean_relative_error=float(row["mean_rel_err"]),
        bias=float(row["bias"]),
        mean_predicted=float(row["mean_predicted"]),
        mean_actual=float(row["mean_actual"]),
    )


def _row_state_key(state) -> tuple:
    """A hashable, order-stable grouping key for a snapshot row's state.

    Snapshot payloads that crossed a JSON boundary render composite
    states as lists; live snapshots keep tuples — both must group
    together.
    """
    if isinstance(state, (tuple, list)):
        return (1,) + tuple(str(part) for part in state)
    if state is None:
        return (2,)
    return (0, str(state))


def merge_accuracy_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge several :meth:`AccuracyTracker.snapshot` payloads into one.

    The coordinator/worker load harness runs one tracker per worker
    process; this combines their dumps into a single fleet-wide view
    with the same shape as a single tracker's snapshot:

    * **rows** — sample-weighted :func:`merge_window_stats` per
      (site, class, state), sorted like a live snapshot;
    * **probes** — reading counts summed, min/max widened; ``last`` is
      dropped (``None``) because "last" is not well defined across
      processes;
    * **drift_events** — concatenated in input order (each worker's
      events are already oldest-first).
    """
    grouped: dict[tuple, list] = {}
    meta: dict[tuple, tuple] = {}
    probes: dict[str, dict] = {}
    events: list[dict] = []
    for snapshot in snapshots:
        for row in snapshot.get("rows", ()):
            state = row["state"]
            if isinstance(state, list):
                state = tuple(state)
            key = (row["site"], row["class"], _row_state_key(state))
            grouped.setdefault(key, []).append(_stats_from_row(row))
            meta[key] = (row["site"], row["class"], state)
        for site, reading in snapshot.get("probes", {}).items():
            merged = probes.setdefault(
                site, {"n": 0, "last": None, "min": None, "max": None}
            )
            merged["n"] += int(reading.get("n", 0))
            for field_name, pick in (("min", min), ("max", max)):
                value = reading.get(field_name)
                if value is None:
                    continue
                current = merged[field_name]
                merged[field_name] = (
                    value if current is None else pick(current, value)
                )
        events.extend(snapshot.get("drift_events", ()))
    rows = []
    for key in sorted(
        grouped, key=lambda k: (k[0], k[1], _state_sort_key(meta[k][2]))
    ):
        site, label, state = meta[key]
        rows.append(
            {"site": site, "class": label, "state": state}
            | merge_window_stats(grouped[key]).to_dict()
        )
    return {
        "rows": rows,
        "probes": {site: probes[site] for site in sorted(probes)},
        "drift_events": events,
    }
