"""repro.obs — tracing + metrics observability for the whole stack.

The substrate every performance question lands on: *where did the time
and the work actually go?*  Three pieces:

* :mod:`repro.obs.metrics` — a global, always-live
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  streaming histograms; per-query paths record into it only the
  totals the dashboard prints;
* :mod:`repro.obs.tracing` — nested, context-managed spans recorded by
  a :class:`~repro.obs.tracing.Tracer`, one request one ``with`` tree.  The global default
  is a no-op tracer, so the instrumentation baked into the engine,
  builder, and MDBS layers costs ~nothing until :func:`enable` (or the
  scoped :func:`recording`) installs a real one;
* :mod:`repro.obs.quality` — model-quality telemetry: rolling
  estimate-vs-actual accuracy windows (the paper's §5 bands, online)
  and the log of events that caused re-derivations.

The system writes two files, and each has one human reader in
``python -m repro.obs``:

* the obs snapshot (:mod:`repro.obs.expose`) — metrics, accuracy
  windows, model versions and drift events as one JSON document,
  rendered by ``python -m repro.obs --snapshot`` as a dashboard;
* the span file (:mod:`repro.obs.trace_analysis`) — one JSON object per
  span, rendered by ``python -m repro.obs trace`` as a report.

Typical use::

    from repro import obs

    tracer = obs.enable()
    server.execute(global_query)          # instrumented internally
    obs.write_jsonl(tracer, "trace.jsonl")
    obs.write_snapshot("obs-snapshot.json")
    obs.disable()

Instrumented call sites use the module-level helpers (:func:`span`,
:func:`inc`, :func:`observe`, :func:`set_gauge`) so they always hit the
currently installed tracer/registry.
"""

from __future__ import annotations

from .expose import (
    read_snapshot,
    render_dashboard,
    snapshot_payload,
    write_snapshot,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .quality import (
    AccuracySample,
    AccuracyTracker,
    AccuracyWindow,
    DriftEvent,
    WindowStats,
    accuracy_table,
    get_tracker,
    merge_accuracy_snapshots,
    merge_window_stats,
    set_tracker,
)
from .trace_analysis import (
    group_traces,
    load_trace_file,
    render_slowest_table,
    render_span_summary,
    render_stage_breakdown,
    render_trace_report,
    render_trace_tree,
    slowest_traces,
    span_to_dict,
    stage_breakdown,
    to_jsonl,
    trace_stage_seconds,
    trace_tree_lines,
    write_jsonl,
)
from .tracing import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
    recording,
    set_tracer,
    span,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "span",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "enabled",
    "recording",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "inc",
    "observe",
    "set_gauge",
    # quality
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
    # span file
    "span_to_dict",
    "to_jsonl",
    "write_jsonl",
    "group_traces",
    "load_trace_file",
    "render_slowest_table",
    "render_span_summary",
    "render_stage_breakdown",
    "render_trace_report",
    "render_trace_tree",
    "slowest_traces",
    "stage_breakdown",
    "trace_stage_seconds",
    "trace_tree_lines",
    # snapshot
    "read_snapshot",
    "render_dashboard",
    "snapshot_payload",
    "write_snapshot",
]


def inc(name: str, amount: float = 1.0) -> None:
    """Increment a counter in the global registry."""
    get_registry().inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record a value into a histogram in the global registry."""
    get_registry().observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge in the global registry."""
    get_registry().set_gauge(name, value)
