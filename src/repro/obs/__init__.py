"""repro.obs — tracing + metrics observability for the whole stack.

The substrate every performance question lands on: *where did the time
and the work actually go?*  Three pieces:

* :mod:`repro.obs.metrics` — a global, always-live
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  streaming histograms, cheap enough to record from per-query hot
  paths;
* :mod:`repro.obs.tracing` — nested, context-managed spans recorded by
  a :class:`~repro.obs.tracing.Tracer`, one request one ``with`` tree.  The global default
  is a no-op tracer, so the instrumentation baked into the engine,
  builder, and MDBS layers costs ~nothing until :func:`enable` (or the
  scoped :func:`recording`) installs a real one;
* :mod:`repro.obs.export` — JSONL trace dumps and per-span-name /
  per-metric summary tables;
* :mod:`repro.obs.quality` — model-quality telemetry: rolling
  estimate-vs-actual accuracy windows (the paper's §5 bands, online)
  and the log of events that caused re-derivations;
* :mod:`repro.obs.expose` — Prometheus-style text exposition, combined
  obs snapshots, the one-screen dashboard behind ``python -m repro.obs``,
  and DriftEvent JSONL export.

Typical use::

    from repro import obs

    tracer = obs.enable()
    server.execute(global_query)          # instrumented internally
    print(obs.summary_table(tracer))      # where did the time go?
    obs.write_jsonl(tracer, "trace.jsonl")
    print(obs.metrics_table(obs.get_registry()))
    obs.disable()

Instrumented call sites use the module-level helpers (:func:`span`,
:func:`inc`, :func:`observe`, :func:`set_gauge`) so they always hit the
currently installed tracer/registry.
"""

from __future__ import annotations

from .export import (
    metrics_table,
    span_to_dict,
    summary_table,
    to_jsonl,
    write_jsonl,
)
from .expose import (
    drift_events_to_jsonl,
    read_snapshot,
    render_dashboard,
    render_text,
    snapshot_payload,
    write_drift_jsonl,
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
    render_stage_breakdown,
    render_trace_report,
    render_trace_tree,
    slowest_traces,
    stage_breakdown,
    trace_stage_seconds,
    trace_tree_lines,
)
from .tracing import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    TraceSampler,
    current_trace_id,
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
    "TraceSampler",
    "NoopTracer",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "span",
    "current_trace_id",
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
    # export
    "span_to_dict",
    "to_jsonl",
    "write_jsonl",
    "summary_table",
    "metrics_table",
    # trace analysis
    "group_traces",
    "load_trace_file",
    "render_slowest_table",
    "render_stage_breakdown",
    "render_trace_report",
    "render_trace_tree",
    "slowest_traces",
    "stage_breakdown",
    "trace_stage_seconds",
    "trace_tree_lines",
    # expose
    "drift_events_to_jsonl",
    "read_snapshot",
    "render_dashboard",
    "render_text",
    "snapshot_payload",
    "write_drift_jsonl",
    "write_snapshot",
]


def inc(name: str, amount: float = 1.0) -> None:
    """Increment a counter in the global registry."""
    get_registry().inc(name, amount)


def observe(name: str, value: float, exemplar: str | None = None) -> None:
    """Record a value into a histogram in the global registry.

    *exemplar* (a trace id) links the observation to its trace; the
    histogram keeps the links for its largest-valued observations.
    """
    get_registry().observe(name, value, exemplar=exemplar)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge in the global registry."""
    get_registry().set_gauge(name, value)
