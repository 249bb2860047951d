"""Span tracing: nested, context-managed spans with attributes.

A :class:`Tracer` records :class:`Span` trees — one span per unit of
work, nested on one stack so a span started while another is open
becomes its child.  The module-level default tracer is a
:class:`NoopTracer` whose :meth:`~NoopTracer.span` returns a shared
do-nothing singleton, so instrumentation left in hot paths costs a
single function call and an empty ``with`` block when tracing is
disabled.  Enable recording globally with :func:`enable` (or scoped with
:func:`recording`), then write the finished spans to a span file with
:func:`repro.obs.trace_analysis.write_jsonl`.

A process traces from one thread, so a request is one ordinary nested
``with`` tree: a span opened with a ``trace_id`` is the root of that
request's trace, and every span opened inside it inherits the id.
Tracing is a plain switch: off, nothing records; on, every request
records its whole tree.

Span start/end times come from ``time.perf_counter`` by default — they
measure *real* wall-clock work, not the simulated clock of
:mod:`repro.env`.  Simulated durations (e.g. a plan step's modeled
elapsed seconds) are attached as span attributes by the instrumented
code.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

_span_ids = itertools.count(1)


@dataclass
class Span:
    """One traced unit of work.

    Spans are context managers: entering records the start time and the
    parent (the innermost open span, unless the span roots a trace),
    exiting records the end time and hands the span to the tracer's
    finished list.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    span_id: int = field(default_factory=lambda: next(_span_ids))
    parent_id: int | None = None
    trace_id: str | None = None
    start: float = 0.0
    end: float | None = None
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)
    #: True for a span created with a trace id: it roots that trace, so
    #: the open span beneath it does not become its parent.
    _root: bool = field(default=False, repr=False, compare=False)

    #: Distinguishes a live span from the no-op singleton without an
    #: isinstance check in hot paths.
    recording = True

    @property
    def duration(self) -> float:
        """Elapsed real seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._finish(self)
        return False


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()
    recording = False
    trace_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The disabled tracer: every span is the shared no-op singleton."""

    enabled = False

    def span(
        self, name: str, trace_id: str | None = None, **attributes: Any
    ) -> _NoopSpan:
        return NOOP_SPAN

    def current(self) -> None:
        return None

    def finished(self) -> list[Span]:
        return []

    def trace(self, trace_id: str) -> list[Span]:
        return []

    def reset(self) -> None:
        pass


NOOP_TRACER = NoopTracer()


class Tracer:
    """A recording tracer: one stack of open spans, one finished list.

    With ``local_ids=True`` the tracer numbers spans from its own
    counter instead of the process-global one, so identically-driven
    tracers produce identical span ids — the property loadgen shards
    rely on for byte-identical merged traces at any worker count.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        local_ids: bool = False,
    ) -> None:
        self._clock = clock
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._ids = itertools.count(1) if local_ids else None

    # -- span lifecycle --------------------------------------------------

    def span(
        self, name: str, trace_id: str | None = None, **attributes: Any
    ) -> "Span | _NoopSpan":
        """Create a span; enter it (``with``) to start the clock.

        With *trace_id* the span roots that trace; without it, the
        innermost open span when it is entered becomes its parent.
        """
        if self._ids is not None:
            span = Span(
                name=name,
                attributes=attributes,
                span_id=next(self._ids),
                _tracer=self,
            )
        else:
            span = Span(name=name, attributes=attributes, _tracer=self)
        if trace_id is not None:
            span.trace_id = trace_id
            span._root = True
        return span

    def _start(self, span: Span) -> None:
        stack = self._stack
        if stack and not span._root:
            top = stack[-1]
            span.parent_id = top.span_id
            span.trace_id = top.trace_id
        stack.append(span)
        span.start = self._clock()

    def _finish(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack
        # Normally a strict LIFO pop; tolerate out-of-order exits.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self._finished.append(span)

    # -- inspection -------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span."""
        stack = self._stack
        return stack[-1] if stack else None

    def finished(self) -> list[Span]:
        """A snapshot of all completed spans (finish order)."""
        return list(self._finished)

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans belonging to *trace_id* (finish order)."""
        return [s for s in self._finished if s.trace_id == trace_id]

    def reset(self) -> None:
        """Drop all recorded spans (open spans keep recording)."""
        self._finished.clear()


# ---------------------------------------------------------------------------
# The global tracer
# ---------------------------------------------------------------------------

_active_tracer: Tracer | NoopTracer = NOOP_TRACER


def get_tracer() -> Tracer | NoopTracer:
    return _active_tracer


def set_tracer(tracer: Tracer | NoopTracer) -> Tracer | NoopTracer:
    """Install *tracer* globally; returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


def enable() -> Tracer:
    """Install (and return) a fresh recording tracer on ``time.perf_counter``."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Restore the no-op default."""
    set_tracer(NOOP_TRACER)


def enabled() -> bool:
    return _active_tracer.enabled


def span(
    name: str, trace_id: str | None = None, **attributes: Any
) -> Span | _NoopSpan:
    """A span from the global tracer (the one instrumentation calls)."""
    if _active_tracer is NOOP_TRACER:
        # Disabled tracing is the common case on every hot path: skip
        # re-forwarding the keyword arguments to a method that ignores them.
        return NOOP_SPAN
    return _active_tracer.span(name, trace_id=trace_id, **attributes)


@contextmanager
def recording(
    clock: Callable[[], float] = time.perf_counter, local_ids: bool = False
) -> Iterator[Tracer]:
    """Scoped tracing: record within the block, then restore the
    previously installed tracer.  *local_ids* as in :class:`Tracer` —
    loadgen shards pass True (with a simulated clock) so their exported
    spans are a pure function of the shard task."""
    tracer = Tracer(clock, local_ids=local_ids)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
