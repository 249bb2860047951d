"""Measurement and aggregation over shard reports.

Two concerns live here:

* :func:`measure_drift_loop` — turn one shard's round timeline into the
  drift-loop numbers the bench reports: when the disturbance started,
  when the detector fired, when the fault cleared, and when accuracy was
  back in the §5 good band.  Everything is counted in served rounds (and
  converted to simulated seconds), so the numbers are deterministic;
* :func:`aggregate_reports` — merge every shard's deterministic facts
  into one payload.  Shards merge in index order regardless of which
  worker ran them, which is the whole determinism argument for
  ``Coordinator.run(workers=N)``: :func:`deterministic_json` of the
  aggregate is byte-identical for any worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..obs.quality import merge_accuracy_snapshots

#: Aggregate-payload schema version.
REPORT_SCHEMA_VERSION = 1

#: Recovery criterion of the drift loop: the watched class's window holds
#: at least RECOVER_MIN_SAMPLES samples, RECOVER_FLOOR_PCT % or more good.
RECOVER_FLOOR_PCT = 50.0
RECOVER_MIN_SAMPLES = 3


def _field(record, name, default=None):
    """Read *name* from a RoundRecord or its asdict() form."""
    if isinstance(record, dict):
        return record.get(name, default)
    return getattr(record, name, default)


@dataclass(frozen=True)
class DriftLoopStats:
    """One shard's detect/recover timeline, in rounds and sim-seconds."""

    #: First round the disturbance was in effect (fault applied or the
    #: scenario's regime shift began); None = timeline was never disturbed.
    onset_round: int | None
    #: First round at/after onset whose maintain() pass raised an event.
    detect_round: int | None
    #: Round the fault cleared (None: still active at end, or the
    #: disturbance was a regime shift, which never clears).
    cleared_round: int | None
    #: First round at/after both detection and the clear (or onset, for
    #: shifts) with accuracy back in the good band.
    recover_round: int | None
    gap_seconds: float

    @property
    def detected(self) -> bool:
        return self.detect_round is not None

    @property
    def recovered(self) -> bool:
        return self.recover_round is not None

    @property
    def detect_latency_rounds(self) -> int | None:
        if self.onset_round is None or self.detect_round is None:
            return None
        return self.detect_round - self.onset_round

    @property
    def recover_latency_rounds(self) -> int | None:
        if self.detect_round is None or self.recover_round is None:
            return None
        return self.recover_round - self.detect_round

    def _seconds(self, rounds: int | None) -> float | None:
        return None if rounds is None else rounds * self.gap_seconds

    def to_dict(self) -> dict:
        return {
            "onset_round": self.onset_round,
            "detect_round": self.detect_round,
            "cleared_round": self.cleared_round,
            "recover_round": self.recover_round,
            "detect_latency_rounds": self.detect_latency_rounds,
            "recover_latency_rounds": self.recover_latency_rounds,
            "detect_latency_seconds": self._seconds(self.detect_latency_rounds),
            "recover_latency_seconds": self._seconds(self.recover_latency_rounds),
        }


def measure_drift_loop(rounds, gap_seconds: float) -> DriftLoopStats:
    """Extract one shard's drift-loop timeline from its round records.

    Recovery means the watched class's *post-rebuild* accuracy window
    (the server resets it at each drift rebuild) holds at least
    :data:`RECOVER_MIN_SAMPLES` samples with the good fraction at/above
    :data:`RECOVER_FLOOR_PCT`,
    at a round no earlier than detection and no earlier than the clear
    (disturbances that never clear — regime shifts — anchor recovery at
    detection instead: the rebuilt model must be good *under* the new
    regime).
    """
    onset = detect = cleared = recover = last_event = None
    for record in rounds:
        index = _field(record, "index")
        notes = _field(record, "fault_notes", []) or []
        if onset is None and (
            any(n.endswith(":applied") for n in notes)
            or _field(record, "shift_started", False)
        ):
            onset = index
        if cleared is None and any(n.endswith(":cleared") for n in notes):
            cleared = index
        if onset is not None and _field(record, "drift_events", []):
            last_event = index
            if detect is None:
                detect = index
    if detect is not None:
        # The loop has converged only once the final rebuild has been
        # published: a fault-trained model serving the restored regime
        # raises one more event, and recovery is measured after it.
        anchor = max(
            detect,
            last_event if last_event is not None else detect,
            cleared if cleared is not None else detect,
        )
        for record in rounds:
            index = _field(record, "index")
            if index < anchor:
                continue
            if (
                _field(record, "samples", 0) >= RECOVER_MIN_SAMPLES
                and _field(record, "good_pct", 0.0) >= RECOVER_FLOOR_PCT
            ):
                recover = index
                break
    return DriftLoopStats(
        onset_round=onset,
        detect_round=detect,
        cleared_round=cleared,
        recover_round=recover,
        gap_seconds=gap_seconds,
    )


def percentile(sorted_values: list[float], q: float) -> float:
    """The bench-suite percentile convention (index = int(q * n))."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def aggregate_reports(reports, gap_seconds: float) -> dict:
    """Merge shard reports (sorted by index) into one deterministic dict.

    Only simulated facts enter: counts, simulated latencies, drift
    timelines, plan-cache counters, and the sample-weighted accuracy
    merge.  Wall-clock numbers stay on the individual reports.
    """
    reports = sorted(reports, key=lambda r: r.index)
    latencies = sorted(
        value for report in reports for value in report.latencies
    )
    by_rule: dict[str, int] = {}
    for report in reports:
        for event in report.drift_events:
            rule = event.get("rule", "unknown")
            by_rule[rule] = by_rule.get(rule, 0) + 1
    plan_cache = {"hits": 0, "misses": 0, "evictions": 0, "invalidated": 0}
    for report in reports:
        for key in plan_cache:
            plan_cache[key] += report.plan_cache.get(key, 0)
    drift_loops = {}
    for report in reports:
        stats = measure_drift_loop(report.rounds, gap_seconds)
        if stats.onset_round is not None:
            drift_loops[str(report.index)] = stats.to_dict()
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "shards": len(reports),
        "scenarios": [r.scenario for r in reports],
        "requests": sum(r.requests for r in reports),
        "completed": sum(r.completed for r in reports),
        "failed": sum(r.failed for r in reports),
        "latency_sim_seconds": {
            "count": len(latencies),
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
        },
        "drift": {
            "events": sum(len(r.drift_events) for r in reports),
            "by_rule": dict(sorted(by_rule.items())),
            "published": sum(len(r.published) for r in reports),
            "loops": drift_loops,
        },
        "plan_cache": plan_cache,
        "probes_executed": {
            site: sum(r.probes_executed.get(site, 0) for r in reports)
            for site in sorted(
                {s for r in reports for s in r.probes_executed}
            )
        },
        "accuracy": merge_accuracy_snapshots([r.accuracy for r in reports]),
        "per_shard": [r.deterministic_dict() for r in reports],
    }


def deterministic_json(payload: dict) -> str:
    """Canonical JSON for byte-for-byte aggregate comparison."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
