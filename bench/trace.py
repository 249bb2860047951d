"""Spans recorded from outside: wrap public callables, remove them again.

The program under test is not edited.  :func:`install` replaces public
callables of the ``repro`` layers with timing wrappers and
:func:`remove` puts the identical original objects back, so untraced
repetitions run with nothing installed.

Self time is a span's duration minus its child spans'.  Stacks are
thread-local because a serving request crosses from the submitting
thread to the worker thread; a span that starts on a thread with an
empty stack is a *root* there, and records the request in flight as the
span that caused it (the benchmark is a closed loop with one client, so
exactly one request is in flight).
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Raw spans kept per recorder for the dump in ``bench/out/``;
#: aggregates always cover every span.
MAX_RAW_SPANS = 40_000


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s


@dataclass
class _ThreadState:
    name: str
    stack: list = field(default_factory=list)
    stats: dict[str, SpanStats] = field(default_factory=dict)
    #: Seconds under root spans of this thread (inclusive).
    root_s: float = 0.0
    raw: list = field(default_factory=list)
    next_id: int = 0


class Recorder:
    """Collects spans from every thread; merged with :meth:`stats`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: Identifier of the request in flight (set by the submit hook);
        #: every span records it, so spans of one request share it.
        self.request = 0
        #: Counters the hooks fill (rows shipped, models built, ...).
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: Objects the hooks saw (front ends, buffer pools) with their
        #: counters at first sight, for per-repetition deltas.
        self.seen: dict[int, tuple[Any, Any]] = {}
        #: Results the hooks kept for later reading (serving tickets).
        self.collected: dict[str, list] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a hook counter (hooks run on one thread at a time)."""
        self.counters[name] += amount

    # -- results -----------------------------------------------------------

    def stats(self) -> defaultdict[str, SpanStats]:
        """Per span name, merged over threads; a name never seen reads as zeros."""
        merged: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        for state in self._threads:
            for name, stats in state.stats.items():
                merged[name].add(stats)
        return merged

    def root_seconds(self, worker_threads: bool) -> float:
        """Inclusive seconds under root spans, on worker or other threads."""
        return sum(
            state.root_s
            for state in self._threads
            if state.name.startswith("serving-worker") == worker_threads
        )

    def raw_spans(self) -> list[dict]:
        out = []
        for state in self._threads:
            for span_id, parent, name, start, end, request in state.raw:
                out.append(
                    {
                        "id": f"{state.name}:{span_id}",
                        # A root was caused by the request in flight.
                        "parent": (
                            f"request:{request}" if parent is None
                            else f"{state.name}:{parent}"
                        ),
                        "name": name,
                        "thread": state.name,
                        "start": start,
                        "end": end,
                        "request": request,
                    }
                )
        return out

    def write_jsonl(self, path: Path) -> int:
        spans = self.raw_spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)


# ---------------------------------------------------------------------------
# Wrap points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WrapPoint:
    """One public callable to time.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    ``before(recorder, args)`` runs ahead of the call; ``after(recorder,
    args, result, frame)`` after a call that returned, and may rename
    the span (``frame[0]``) — how one ``LocalDatabase.execute`` wrap
    yields separate unary and join spans.
    """

    target: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


@dataclass
class Patch:
    owner: Any
    attr: str
    original: Any


def _wrapper(recorder: Recorder, point: WrapPoint, original: Callable) -> Callable:
    """The timing wrapper; written flat, it runs ~30 times per serving request."""
    name, before, after = point.span, point.before, point.after
    local, clock = recorder._local, time.perf_counter

    def wrapper(*args, **kwargs):
        if before is not None:
            before(recorder, args)
        try:
            state = local.state
        except AttributeError:
            state = recorder._state()
        stack = state.stack
        # frame: [name, child seconds, span id]
        frame = [name, 0.0, state.next_id]
        state.next_id += 1
        stack.append(frame)
        start = clock()
        try:
            result = original(*args, **kwargs)
            if after is not None:
                after(recorder, args, result, frame)
            return result
        finally:
            end = clock()
            duration = end - start
            stack.pop()
            stats = state.stats.get(frame[0])
            if stats is None:
                stats = state.stats[frame[0]] = SpanStats()
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += duration
                parent_id = parent[2]
            else:
                state.root_s += duration
                parent_id = None
            if len(state.raw) < MAX_RAW_SPANS:
                state.raw.append(
                    (frame[2], parent_id, frame[0], start, end, recorder.request)
                )

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    return wrapper


def install(recorder: Recorder, points: list[WrapPoint]) -> list[Patch]:
    """Replace each wrap point with a timing wrapper; returns the undo list.

    A module-level function is rebound in every loaded module that holds
    the same object (``from x import f`` copies the binding), a method on
    its class.
    """
    patches: list[Patch] = []
    for point in points:
        module_name, _, path = point.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrapper(recorder, point, original))
            patches.append(Patch(owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(recorder, point, original)
        for other in list(sys.modules.values()):
            names = getattr(other, "__dict__", None)
            if not names or not getattr(other, "__name__", "").startswith(
                ("repro", "bench")
            ):
                continue
            for key, value in list(names.items()):
                if value is original:
                    setattr(other, key, wrapped)
                    patches.append(Patch(other, key, original))
    return patches


def remove(patches: list[Patch]) -> None:
    """Put every original object back (reverse order)."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)
    patches.clear()
