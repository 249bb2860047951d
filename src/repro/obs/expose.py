"""The obs snapshot: one JSON document and its one-screen dashboard.

:func:`write_snapshot` persists metrics + accuracy windows + model
registry state at the end of a run (``python -m repro.experiments
--snapshot-out``); :func:`render_dashboard` lays the same payload out
for ``python -m repro.obs --snapshot``: serving totals, the accuracy
table (the paper's §5 "very good"/"good" bands, online), model
versions, and recent drift events.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import MetricsRegistry, get_registry
from .quality import AccuracyTracker, DriftEvent, accuracy_table, get_tracker

__all__ = [
    "read_snapshot",
    "render_dashboard",
    "snapshot_payload",
    "write_snapshot",
]

#: Version stamp of the snapshot payload this module writes.
SNAPSHOT_VERSION = 1


# ---------------------------------------------------------------------------
# Snapshots: one JSON document carrying the whole obs state
# ---------------------------------------------------------------------------


def _model_rows(model_registry) -> list[dict]:
    """Per-(site, class) active-version summaries for the dashboard."""
    rows = []
    for site, label in model_registry.keys():
        entry = model_registry.active_version(site, label)
        rows.append(
            {
                "site": site,
                "class": label,
                "active": entry.version,
                "versions": len(model_registry.history(site, label)),
                "algorithm": entry.provenance.algorithm,
                "r_squared": entry.provenance.r_squared,
                "trigger": entry.provenance.trigger,
            }
        )
    return rows


def snapshot_payload(
    registry: MetricsRegistry | None = None,
    accuracy: AccuracyTracker | None = None,
    model_registry=None,
) -> dict:
    """The combined obs state as a JSON-serializable document.

    ``None`` arguments default to the process-global registry/tracker;
    *model_registry* (a :class:`~repro.mdbs.registry.CostModelRegistry`)
    is optional — experiments that never build an MDBS have none.
    """
    registry = registry if registry is not None else get_registry()
    accuracy = accuracy if accuracy is not None else get_tracker()
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "metrics": registry.snapshot(),
        "accuracy": accuracy.snapshot(),
        "models": _model_rows(model_registry) if model_registry is not None else [],
    }


def write_snapshot(
    path: str | Path,
    registry: MetricsRegistry | None = None,
    accuracy: AccuracyTracker | None = None,
    model_registry=None,
) -> dict:
    """Persist :func:`snapshot_payload` as JSON; returns the payload."""
    payload = snapshot_payload(registry, accuracy, model_registry)
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return payload


def read_snapshot(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported obs snapshot version {version!r} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )
    return payload


# ---------------------------------------------------------------------------
# The one-screen dashboard
# ---------------------------------------------------------------------------

_DASH_COUNTERS = (
    ("mdbs.global_queries", "global queries"),
    ("serving.completed", "served requests"),
    ("serving.failed", "failed requests"),
    ("serving.plan_cache.hits", "plan-cache hits"),
    ("mdbs.accuracy.samples", "accuracy samples"),
    ("mdbs.maintenance_runs", "maintenance runs"),
    ("maintenance.rebuilds", "model rebuilds"),
    ("mdbs.drift.events", "drift events"),
    ("mdbs.registry.published", "versions published"),
)


def _rule(title: str) -> str:
    return f"--- {title} " + "-" * max(0, 67 - len(title))


def render_dashboard(payload: dict) -> str:
    """Lay a snapshot payload out as a one-screen text dashboard."""
    metrics = payload.get("metrics", {})
    lines: list[str] = ["repro.obs dashboard"]

    totals = []
    for name, label in _DASH_COUNTERS:
        entry = metrics.get(name)
        if entry is not None and entry.get("value"):
            totals.append(f"{label}={int(entry['value'])}")
    lines.append("  ".join(totals) if totals else "(no serving activity recorded)")

    lines.append("")
    lines.append(_rule("estimate accuracy (rolling windows)"))
    lines.append(accuracy_table(payload.get("accuracy", {})))

    models = payload.get("models", [])
    lines.append("")
    lines.append(_rule("active model versions"))
    if models:
        for row in models:
            trigger = f"  trigger: {row['trigger']}" if row.get("trigger") else ""
            lines.append(
                f"{row['site']}/{row['class']:<4} v{row['active']} "
                f"of {row['versions']}  {row['algorithm']:<8} "
                f"R²={row['r_squared']:.4f}{trigger}"
            )
    else:
        lines.append("(no model registry in snapshot)")

    events = payload.get("accuracy", {}).get("drift_events", [])
    lines.append("")
    lines.append(_rule(f"drift events ({len(events)})"))
    if events:
        for event in events[-8:]:
            lines.append(DriftEvent.from_dict(event).describe())
    else:
        lines.append("(none)")
    return "\n".join(lines)

