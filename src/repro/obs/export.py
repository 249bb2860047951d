"""Exporters: JSONL trace dumps and human-readable summary tables.

Two consumers, two formats:

* :func:`write_jsonl` — one JSON object per span, for offline analysis
  (the dicts round-trip through ``json.loads`` and reference each other
  via ``span_id``/``parent_id``, so a trace tree is reconstructable);
* :func:`summary_table` — a per-span-name aggregate (count, total,
  mean, p50, p95 of real durations) for a quick "where did the time
  go?" read at the end of a run.

:func:`metrics_table` renders a registry snapshot the same way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .metrics import MetricsRegistry, quantile
from .tracing import Span, Tracer


def _spans_of(source: Tracer | Iterable[Span]) -> list[Span]:
    if isinstance(source, Tracer):
        return source.finished()
    return list(source)


def span_to_dict(span: Span) -> dict[str, Any]:
    """A JSON-serializable view of one span."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attributes": dict(span.attributes),
    }


def to_jsonl(source: Tracer | Iterable[Span]) -> str:
    """The whole trace as JSON-lines text (one span per line)."""
    return "".join(
        json.dumps(span_to_dict(span), default=str) + "\n"
        for span in _spans_of(source)
    )


def write_jsonl(source: Tracer | Iterable[Span], path: str | Path) -> int:
    """Dump the trace to *path*; returns the number of spans written."""
    spans = _spans_of(source)
    Path(path).write_text(to_jsonl(spans), encoding="utf-8")
    return len(spans)


def summary_table(
    source: Tracer | Iterable[Span], sort_by: str = "name"
) -> str:
    """Aggregate spans by name into a fixed-width table.

    *sort_by* is one of ``"name"`` (the default — stable ordering for
    golden-test output), ``"count"``, or ``"total"``.
    """
    groups: dict[str, list[float]] = {}
    for span in _spans_of(source):
        groups.setdefault(span.name, []).append(span.duration)
    if not groups:
        return "(no spans recorded)"

    rows = []
    for name, durations in groups.items():
        durations.sort()
        rows.append(
            (
                name,
                len(durations),
                sum(durations),
                sum(durations) / len(durations),
                quantile(durations, 0.5),
                quantile(durations, 0.95),
            )
        )
    if sort_by == "name":
        rows.sort(key=lambda r: r[0])
    elif sort_by == "count":
        rows.sort(key=lambda r: r[1], reverse=True)
    elif sort_by == "total":
        rows.sort(key=lambda r: r[2], reverse=True)
    else:
        raise ValueError(f"unknown sort_by {sort_by!r}")

    width = max(len("span"), *(len(r[0]) for r in rows))
    header = (
        f"{'span':<{width}}  {'count':>7}  {'total_s':>10}  "
        f"{'mean_s':>10}  {'p50_s':>10}  {'p95_s':>10}"
    )
    lines = [header, "-" * len(header)]
    for name, count, total, mean, p50, p95 in rows:
        lines.append(
            f"{name:<{width}}  {count:>7}  {total:>10.4f}  "
            f"{mean:>10.6f}  {p50:>10.6f}  {p95:>10.6f}"
        )
    return "\n".join(lines)


def metrics_table(registry: MetricsRegistry) -> str:
    """Render a registry snapshot as aligned ``name  kind  value`` rows.

    Rows sort by metric name and the value column is right-aligned, so
    the rendering is stable enough for golden tests and scans like a
    numeric column should.
    """
    snapshot = registry.snapshot()
    if not snapshot:
        return "(no metrics recorded)"
    rows = []
    for name, entry in snapshot.items():  # snapshot() is already name-sorted
        kind = entry["kind"]
        if kind == "histogram":
            value = (
                f"n={entry['count']} mean={_fmt(entry.get('mean'))} "
                f"p50={_fmt(entry.get('p50'))} p95={_fmt(entry.get('p95'))} "
                f"max={_fmt(entry.get('max'))}"
            )
        else:
            value = _fmt(entry["value"])
        rows.append((name, kind, value))
    name_width = max(len("metric"), *(len(r[0]) for r in rows))
    value_width = max(len("value"), *(len(r[2]) for r in rows))
    lines = [f"{'metric':<{name_width}}  {'kind':<9}  {'value':>{value_width}}"]
    lines.append("-" * len(lines[0]))
    for name, kind, value in rows:
        lines.append(f"{name:<{name_width}}  {kind:<9}  {value:>{value_width}}")
    return "\n".join(lines)


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"
