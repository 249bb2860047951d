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
``with`` tree.  Request-scoped tracing adds two things:

* a span opened with a ``trace_id`` is the root of that request's
  trace; every span opened inside it inherits the id;
* :class:`TraceSampler` makes the keep/drop decision per trace id with
  a deterministic hash (same seed + trace id ⇒ same verdict in every
  process), with a ``force`` escape hatch so failed queries and drift
  exemplars are always kept.

Span start/end times come from ``time.perf_counter`` by default — they
measure *real* wall-clock work, not the simulated clock of
:mod:`repro.env`.  Simulated durations (e.g. a plan step's modeled
elapsed seconds) are attached as span attributes by the instrumented
code.
"""

from __future__ import annotations

import itertools
import time
import zlib
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

    def active_trace_id(self) -> None:
        return None

    def suppress_begin(self, trace_id: str | None = None) -> tuple:
        return (False, None)

    def suppress_end(self, token: tuple) -> None:
        pass

    def finished(self) -> list[Span]:
        return []

    def trace(self, trace_id: str) -> list[Span]:
        return []

    def drop_trace(self, trace_id: str) -> int:
        return 0

    def span_count(self, trace_id: str) -> int:
        return 0

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

    #: Dropped-trace ids accumulate lazily; past this many the finished
    #: list is compacted in one pass (amortized O(1) per drop).
    DROP_COMPACT_THRESHOLD = 64

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        local_ids: bool = False,
    ) -> None:
        self._clock = clock
        self._stack: list[Span] = []
        #: Between :meth:`suppress_begin` and :meth:`suppress_end`: spans
        #: are not recorded, and :meth:`active_trace_id` answers
        #: ``_suppress_id``.
        self._suppressing = False
        self._suppress_id: str | None = None
        self._finished: list[Span] = []
        self._dropped: set[str] = set()
        self._trace_counts: dict[str, int] = {}
        self._ids = itertools.count(1) if local_ids else None

    # -- span lifecycle --------------------------------------------------

    def span(
        self, name: str, trace_id: str | None = None, **attributes: Any
    ) -> "Span | _NoopSpan":
        """Create a span; enter it (``with``) to start the clock.

        With *trace_id* the span roots that trace; without it, the
        innermost open span when it is entered becomes its parent.
        """
        if self._suppressing:
            return NOOP_SPAN
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
        if span.trace_id is not None:
            self._trace_counts[span.trace_id] = (
                self._trace_counts.get(span.trace_id, 0) + 1
            )

    # -- per-request suppression ------------------------------------------

    def suppress_begin(self, trace_id: str | None = None) -> tuple:
        """Silence span creation until :meth:`suppress_end`.

        The head-sampling fast path: a request whose trace id hashed
        out of the sample runs its pipeline with every ``span()`` call
        returning the no-op singleton, so it pays (almost) the
        tracing-off price.  *trace_id* keeps :func:`current_trace_id`
        answering meanwhile, so accuracy/exemplar links — the signals
        that can still force-keep the request's stub trace — survive
        suppression.  Returns the token to hand back to
        :meth:`suppress_end` (in a ``finally``); a plain call pair, not
        a context manager, because this runs once per unsampled request.
        """
        token = (self._suppressing, self._suppress_id)
        self._suppressing = True
        self._suppress_id = trace_id
        return token

    def suppress_end(self, token: tuple) -> None:
        """Restore the suppression state captured by :meth:`suppress_begin`."""
        self._suppressing, self._suppress_id = token

    # -- inspection -------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span."""
        stack = self._stack
        return stack[-1] if stack else None

    def active_trace_id(self) -> str | None:
        """The innermost open span's trace id, or the id a
        suppressed (unsampled) request carries."""
        stack = self._stack
        if stack:
            return stack[-1].trace_id
        if self._suppressing:
            return self._suppress_id
        return None

    def finished(self) -> list[Span]:
        """A snapshot of all completed, undropped spans (finish order)."""
        if not self._dropped:
            return list(self._finished)
        dropped = self._dropped
        return [s for s in self._finished if s.trace_id not in dropped]

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans belonging to *trace_id* (finish order)."""
        if trace_id in self._dropped:
            return []
        return [s for s in self._finished if s.trace_id == trace_id]

    def span_count(self, trace_id: str) -> int:
        """Finished-span count for one trace — O(1), for the sampler's
        spans-per-trace histogram (a full scan per resolved request
        would make tail resolution quadratic over a serving run)."""
        if trace_id in self._dropped:
            return 0
        return self._trace_counts.get(trace_id, 0)

    def drop_trace(self, trace_id: str) -> int:
        """Discard every finished span of *trace_id* (the tail half of a
        sampled-out decision).  O(1): the id goes into a dropped set and
        the finished list compacts only every
        :data:`DROP_COMPACT_THRESHOLD` drops.  Returns 1 if the id was
        newly dropped, else 0.
        """
        if trace_id is None or trace_id in self._dropped:
            return 0
        self._dropped.add(trace_id)
        self._trace_counts.pop(trace_id, None)
        if len(self._dropped) >= self.DROP_COMPACT_THRESHOLD:
            dropped = self._dropped
            self._finished = [s for s in self._finished if s.trace_id not in dropped]
            self._dropped = set()
        return 1

    def reset(self) -> None:
        """Drop all recorded spans (open spans keep recording)."""
        self._finished.clear()
        self._dropped.clear()
        self._trace_counts.clear()


class TraceSampler:
    """Deterministic head sampling by trace-id hash, resolved at tail.

    The keep/drop verdict for a trace id is a pure function of
    ``(seed, trace_id)`` — the same in every process at any worker
    count.  The serving front end consults :meth:`keep` at submission:
    sampled requests record their full span tree, unsampled requests
    run with every span suppressed (:meth:`Tracer.suppress_begin`) and record
    nothing, so sampling saves recording cost up front rather than
    discarding spans already paid for.  :meth:`resolve` is called once
    at request completion and either keeps what was recorded (counting
    it sampled) or drops it.  ``force=True`` keeps the trace regardless
    of the hash — the always-keep path for failed queries and
    worst-band accuracy exemplars; a forced-but-unsampled
    request materializes a 1-span root stub at finish, so a postmortem
    at least sees the request and its final status.
    """

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate!r}")
        self.rate = float(rate)
        self.seed = int(seed)
        self.sampled = 0
        self.dropped = 0
        self.forced = 0
        # Metric handles cached per registry: resolve() runs once per
        # request, and name-keyed registry lookups there are measurable
        # against the <5% sampled-overhead budget.
        self._registry = None
        self._sampled_counter = None
        self._dropped_counter = None
        self._spans_histogram = None

    def keep(self, trace_id: str) -> bool:
        """The head decision: pure, deterministic, process-independent."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        digest = zlib.crc32(f"{self.seed}:{trace_id}".encode("utf-8"))
        return digest / 2**32 < self.rate

    def _bind_metrics(self) -> None:
        from .metrics import get_registry

        registry = get_registry()
        if registry is not self._registry:
            self._registry = registry
            self._sampled_counter = registry.counter("obs.trace.sampled")
            self._dropped_counter = registry.counter("obs.trace.dropped")
            self._spans_histogram = registry.histogram("obs.trace.spans")

    def resolve(
        self, tracer: Tracer | NoopTracer, trace_id: str, force: bool = False
    ) -> bool:
        """Tail resolution: keep (and count) or drop the trace's spans."""
        self._bind_metrics()
        hash_keep = self.keep(trace_id)
        kept = force or hash_keep
        if kept:
            self.sampled += 1
            if not hash_keep:
                self.forced += 1
            self._sampled_counter.add(1.0)
            count = tracer.span_count(trace_id)
            if count:
                self._spans_histogram.record(float(count))
        else:
            self.dropped += 1
            tracer.drop_trace(trace_id)
            self._dropped_counter.add(1.0)
        return kept


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


def enable(clock: Callable[[], float] = time.perf_counter) -> Tracer:
    """Install (and return) a fresh recording tracer."""
    tracer = Tracer(clock)
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


def current_trace_id() -> str | None:
    """The trace id of the active trace, if any.

    Instrumented code that only wants to *link* to the active trace
    (accuracy exemplars) calls this instead of
    passing a context object through every signature.  It answers for
    the innermost open span — and while a :meth:`Tracer.suppress_begin`
    is in force, for the unsampled request it carries — so force-keep
    signals work whether or not the request records spans.
    """
    return _active_tracer.active_trace_id()


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
