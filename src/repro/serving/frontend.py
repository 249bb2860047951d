"""The concurrent serving front end: pool → admission → cache → server.

:class:`ServingFrontEnd` puts a worker pool in front of an
:class:`~repro.mdbs.server.MDBSServer` so thousands of in-flight
:class:`~repro.mdbs.gquery.GlobalJoinQuery` requests can be admitted
concurrently instead of the seed's one-synchronous-call-at-a-time
``server.execute``:

1. **admission** — a bounded queue plus an optional total-in-flight
   bound, with block (backpressure) or reject (load-shedding) policy and
   an optional queue-wait deadline (:mod:`.config`);
2. **plan cache** — repeated optimizations within the same contention
   states are served from :class:`~repro.serving.plan_cache.PlanCache`
   without re-running the optimizer; registry events (publish /
   activate / rollback) evict exactly the dependent entries;
3. **probe sharing** — state resolution and optimizer probing both go
   through the server's shared
   :class:`~repro.mdbs.probing_service.ProbingService`, whose per-site
   single-flight locks let concurrent requests within one TTL window
   share a single probing query per site;
4. **execution** — the server's per-site locks serialize engine access
   (the simulated clocks and temp tables are per-site state), so worker
   threads interleave safely.

Determinism guard: with ``workers=1`` and ``plan_cache=False`` a worker
calls ``server.execute(query)`` with no plan argument — the exact
synchronous path, byte-identical plan choices included
(tests/serving/test_frontend.py pins this).

Every stage is observable through the global metrics registry:
``serving.queue_depth`` / ``serving.in_flight`` gauges,
``serving.{submitted,admitted,rejected,completed,failed,timed_out}``
counters, ``serving.plan_cache.*`` counters, and
``serving.{wait,latency}_seconds`` histograms — all of which surface in
the existing Prometheus/JSON exposition (:mod:`repro.obs.expose`).

With a real tracer installed (``obs.enable`` / ``obs.set_tracer``),
every ticket additionally carries a **trace id** and a detached
``serving.request`` root span that survives the submit→worker thread
hop: ``serving.queue`` measures the time queued (in the tracer's own
clock), ``serving.plan`` / ``serving.execute`` anchor under the root on
whichever worker runs the request, and the nested ``mdbs.*`` spans
carry decision provenance — plan-cache hit/miss reason (eviction cause
included), active model ``version:form`` tags, estimate vs actual
seconds.  A deterministic :class:`~repro.obs.tracing.TraceSampler`
(``trace_sample_rate`` / ``trace_seed``) makes the head decision at
submission: unsampled requests run with all spans suppressed and record
nothing, so sampling saves recording cost rather than discarding
recorded spans.  Failed, timed-out, and rejected requests and requests
flagged by the accuracy tracker are always kept — fully when sampled;
as a 1-span root stub, materialized at finish, otherwise.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from .. import obs
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.optimizer import GlobalPlan
from ..mdbs.registry import CostModelRegistryError
from ..mdbs.server import GlobalExecution, MDBSServer
from .config import ServingConfig
from .plan_cache import PlanCache

_SENTINEL = object()

#: Ticket lifecycle states.
TICKET_STATUSES = (
    "pending", "running", "completed", "rejected", "timed_out", "failed",
)


def _trace_query_label(query: GlobalJoinQuery) -> str:
    """A compact, deterministic query identity for span attributes."""
    return (
        f"{query.left_site}.{query.left_table}"
        f"*{query.right_site}.{query.right_table}"
    )


@dataclass
class ServingTicket:
    """One submitted request and (eventually) its outcome.

    Timestamps are real wall-clock (``time.monotonic``) seconds — the
    serving layer's latency is a genuine performance number, unlike the
    *simulated* seconds inside ``execution``.
    """

    query: GlobalJoinQuery
    index: int
    status: str = "pending"
    execution: GlobalExecution | None = None
    error: BaseException | None = None
    #: "cache" | "optimizer" | None (not executed).
    plan_source: str | None = None
    #: The request's trace id (None when tracing was off at submission).
    trace_id: str | None = None
    #: Head-sampling verdict made at submission: True = record the full
    #: span tree, False = record nothing while running (a 1-span root
    #: stub materializes at finish if the request fails or gets flagged).
    trace_sampled: bool = True
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Detached spans opened at submission, closed wherever the request
    #: finishes (a pool worker, or the submitter on rejection).
    _root_span: obs.Span | None = field(default=None, repr=False)
    _queue_span: obs.Span | None = field(default=None, repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the request finishes (True) or *timeout* (False)."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def ok(self) -> bool:
        return self.status == "completed"

    @property
    def wait_seconds(self) -> float | None:
        """Real seconds spent queued before a worker picked it up."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_seconds(self) -> float | None:
        """Real seconds from submission to completion (any outcome)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass(frozen=True)
class ServingStats:
    """A consistent snapshot of one front end's lifetime counts."""

    submitted: int
    admitted: int
    rejected: int
    completed: int
    failed: int
    timed_out: int
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    plan_cache_invalidated: int

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    @property
    def dropped(self) -> int:
        """Requests that never executed (rejected + timed out)."""
        return self.rejected + self.timed_out


class ServingFrontEnd:
    """Admits, schedules, and executes global queries over a worker pool."""

    def __init__(
        self,
        server: MDBSServer,
        config: ServingConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.server = server
        self.config = config or ServingConfig()
        if plan_cache is not None:
            self.plan_cache: PlanCache | None = plan_cache
        elif self.config.plan_cache:
            # Keys carry the active (version, form) per dependency so a
            # racing strategy deployment never serves a plan scored by a
            # different model form (see PlanCache's model_tag doc).
            self.plan_cache = PlanCache(
                server.catalog.registry,
                capacity=self.config.plan_cache_capacity,
                model_tag=server.model_tag,
            )
        else:
            self.plan_cache = None
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.queue_depth)
        self._in_flight_slots = (
            threading.BoundedSemaphore(self.config.max_in_flight)
            if self.config.max_in_flight is not None
            else None
        )
        self._threads: list[threading.Thread] = []
        self._stats_lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("submitted", "admitted", "rejected", "completed", "failed", "timed_out"),
            0,
        )
        self._executing = 0
        self._next_index = 0
        self._started = False
        self._closed = False
        #: Deterministic head sampler resolving keep/drop per finished
        #: trace; failures and flagged requests bypass it (always kept).
        self.sampler = obs.TraceSampler(
            rate=self.config.trace_sample_rate, seed=self.config.trace_seed
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ServingFrontEnd":
        """Spawn the worker threads (idempotent)."""
        if self._closed:
            raise RuntimeError("front end already closed")
        if self._started:
            return self
        self._started = True
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serving-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        obs.set_gauge("serving.workers", self.config.workers)
        return self

    def close(self) -> None:
        """Drain the queue and stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for _ in self._threads:
                self._queue.put(_SENTINEL)
            for thread in self._threads:
                thread.join()
        if self.plan_cache is not None:
            self.plan_cache.close()

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission + admission -------------------------------------------

    def submit(self, query: GlobalJoinQuery) -> ServingTicket:
        """Admit *query* (or reject it, per policy); returns its ticket.

        With the ``"block"`` policy a full queue applies backpressure —
        this call waits for space and no request is ever dropped.  With
        ``"reject"`` a full bound finishes the ticket immediately with
        status ``"rejected"``.
        """
        if not self._started or self._closed:
            raise RuntimeError("front end is not running (use start() / `with`)")
        blocking = self.config.admission_policy == "block"
        ticket = ServingTicket(
            query=query, index=self._take_index(), submitted_at=time.monotonic()
        )
        self._count("submitted")
        obs.inc("serving.submitted")
        tracer = obs.get_tracer()
        if tracer.enabled:
            # The root span is detached: entered here on the submitter's
            # thread, exited on whichever pool worker finishes the
            # request — the trace survives the thread hop by explicit
            # parent context, not by thread-stack inheritance.
            ticket.trace_id = f"{self.config.trace_id_prefix}q{ticket.index:06d}"
            # The head decision happens here, not at completion: an
            # unsampled request records nothing at all while it runs
            # (children suppressed, root materialized lazily at finish
            # only if the request must be force-kept), so sampling saves
            # the recording cost instead of discarding spans already
            # paid for (tests/serving/test_frontend.py::TestTracing::
            # test_unsampled_requests_record_nothing guards this).
            ticket.trace_sampled = self.sampler.keep(ticket.trace_id)
            if ticket.trace_sampled:
                root = tracer.span(
                    "serving.request",
                    trace_id=ticket.trace_id,
                    detached=True,
                    index=ticket.index,
                    query=_trace_query_label(query),
                    admission_policy=self.config.admission_policy,
                )
                root.__enter__()
                ticket._root_span = root
                queue_span = tracer.span(
                    "serving.queue", parent=root.context, detached=True
                )
                queue_span.__enter__()
                ticket._queue_span = queue_span
        if self._in_flight_slots is not None:
            if not self._in_flight_slots.acquire(blocking=blocking):
                return self._reject(ticket)
        try:
            if blocking:
                self._queue.put(ticket)
            else:
                self._queue.put_nowait(ticket)
        except queue.Full:
            if self._in_flight_slots is not None:
                self._in_flight_slots.release()
            return self._reject(ticket)
        self._count("admitted")
        obs.inc("serving.admitted")
        obs.set_gauge("serving.queue_depth", self._queue.qsize())
        return ticket

    def serve(
        self, queries: list[GlobalJoinQuery], timeout: float | None = None
    ) -> list[ServingTicket]:
        """Submit every query and wait for all tickets to finish."""
        tickets = [self.submit(q) for q in queries]
        deadline = None if timeout is None else time.monotonic() + timeout
        for ticket in tickets:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            ticket.wait(remaining)
        return tickets

    def warm(self, queries: list[GlobalJoinQuery]) -> int:
        """Prime the plan cache: optimize each query once, synchronously.

        Returns the number of queries optimized (0 when the cache is
        off).  Benches warm deterministically before a concurrent flood
        so cache-hit and join-site counts don't depend on which workers
        win the cold-start optimization races.
        """
        if self.plan_cache is None:
            return 0
        for query in queries:
            self._plan_for(query)
        return len(queries)

    def _reject(self, ticket: ServingTicket) -> ServingTicket:
        ticket.status = "rejected"
        ticket.finished_at = time.monotonic()
        self._count("rejected")
        obs.inc("serving.rejected")
        self._finish_trace(ticket, force=True)
        ticket._done.set()
        return ticket

    def _finish_trace(self, ticket: ServingTicket, force: bool = False) -> None:
        """Close the ticket's detached spans and resolve keep-or-drop."""
        if ticket.trace_id is None:
            return
        root = ticket._root_span
        if root is not None:
            queue_span = ticket._queue_span
            if queue_span is not None and queue_span.end is None:
                queue_span.__exit__(None, None, None)
            ticket._queue_span = None
            root.set_attribute("status", ticket.status)
            root.__exit__(None, None, None)
            ticket._root_span = None
            tracer = root._tracer or obs.get_tracer()
        else:
            tracer = obs.get_tracer()
            if force and tracer.enabled:
                # An unsampled request that must be kept (failed, timed
                # out, rejected, or flagged by the accuracy tracker)
                # materializes its 1-span stub only now — the unsampled
                # common path records nothing.
                with tracer.span(
                    "serving.request",
                    trace_id=ticket.trace_id,
                    detached=True,
                    index=ticket.index,
                    query=_trace_query_label(ticket.query),
                    admission_policy=self.config.admission_policy,
                    status=ticket.status,
                ):
                    pass
        self.sampler.resolve(tracer, ticket.trace_id, force=force)

    # -- the worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            obs.set_gauge("serving.queue_depth", self._queue.qsize())
            try:
                self._process(item)
            finally:
                if self._in_flight_slots is not None:
                    self._in_flight_slots.release()

    def _process(self, ticket: ServingTicket) -> None:
        now = time.monotonic()
        deadline = self.config.deadline_seconds
        if deadline is not None and now - ticket.submitted_at > deadline:
            ticket.status = "timed_out"
            ticket.finished_at = now
            self._count("timed_out")
            obs.inc("serving.timed_out")
            self._finish_trace(ticket, force=True)
            ticket._done.set()
            return
        ticket.started_at = now
        ticket.status = "running"
        root = ticket._root_span
        queue_span = ticket._queue_span
        if queue_span is not None:
            # Queue wait in the *tracer's* clock: real seconds under
            # perf_counter, 0.0 under a simulated clock — which is what
            # keeps merged loadgen traces byte-identical across runs.
            queue_span.__exit__(None, None, None)
            ticket._queue_span = None
        parent = root.context if root is not None else None
        # Plain begin/end suppression (not a context manager): this is
        # the per-request fast path the sampled-overhead guard budgets.
        suppress_tracer = (
            obs.get_tracer()
            if ticket.trace_id is not None and not ticket.trace_sampled
            else None
        )
        with self._stats_lock:
            self._executing += 1
            obs.set_gauge("serving.in_flight", self._executing)
        try:
            token = (
                suppress_tracer.suppress_begin(ticket.trace_id)
                if suppress_tracer is not None
                else None
            )
            try:
                with obs.span("serving.plan", parent=parent) as plan_span:
                    plan, source = self._plan_for(ticket.query, span=plan_span)
                with obs.span("serving.execute", parent=parent) as exec_span:
                    execution = self.server.execute(ticket.query, plan)
                    if exec_span.recording:
                        exec_span.set_attributes(
                            estimated_seconds=execution.estimated_seconds,
                            observed_seconds=execution.observed_seconds,
                            models=self._model_attr(execution.plan),
                        )
            finally:
                if suppress_tracer is not None:
                    suppress_tracer.suppress_end(token)
            ticket.execution = execution
            ticket.plan_source = source
            ticket.status = "completed"
            self._count("completed")
            obs.inc("serving.completed")
        except Exception as exc:  # a failed request must not kill its worker
            ticket.error = exc
            ticket.status = "failed"
            if root is not None:
                root.set_attribute("error", type(exc).__name__)
            self._count("failed")
            obs.inc("serving.failed")
        finally:
            with self._stats_lock:
                self._executing -= 1
                obs.set_gauge("serving.in_flight", self._executing)
            ticket.finished_at = time.monotonic()
            obs.observe("serving.wait_seconds", ticket.wait_seconds or 0.0)
            obs.observe(
                "serving.latency_seconds",
                ticket.latency_seconds or 0.0,
                exemplar=ticket.trace_id,
            )
            force = ticket.status in ("failed", "timed_out") or (
                ticket.trace_id is not None
                and self.server.accuracy.is_flagged(ticket.trace_id)
            )
            self._finish_trace(ticket, force=force)
            ticket._done.set()

    # -- planning ----------------------------------------------------------

    def _plan_for(
        self, query: GlobalJoinQuery, span: "obs.Span | None" = None
    ) -> tuple[GlobalPlan | None, str]:
        """(plan, source) — None defers to ``server.execute``'s own
        optimize call, keeping the cache-off path byte-identical to the
        synchronous server.  *span* (the enclosing ``serving.plan``
        span, when recording) receives the decision provenance: cache
        hit or the concrete miss reason, the chosen join site, the
        estimate, and the model version/form tags behind it."""
        span = span if span is not None else obs.NOOP_SPAN
        if self.plan_cache is None:
            return None, "optimizer"
        cached, reason = self.plan_cache.lookup(query, self._resolve_state)
        if cached is not None:
            if span.recording:
                span.set_attributes(
                    source="cache",
                    cache="hit",
                    join_site=cached.join_site,
                    estimated_seconds=cached.estimated_seconds,
                    models=self._model_attr(cached),
                )
            return cached, "cache"
        with obs.span("mdbs.optimize") as opt_span:
            candidates = self.server.optimizer().plans(query)
            chosen = min(candidates, key=lambda p: p.estimated_seconds)
            if opt_span.recording:
                opt_span.set_attribute("candidates", len(candidates))
        self.plan_cache.put(query, candidates, chosen)
        if span.recording:
            span.set_attributes(
                source="optimizer",
                cache=reason,
                join_site=chosen.join_site,
                estimated_seconds=chosen.estimated_seconds,
                models=self._model_attr(chosen),
            )
        return chosen, "optimizer"

    def _model_attr(self, plan: GlobalPlan | None) -> str:
        """The plan's model dependencies as ``site/class=vN:form`` tags."""
        if plan is None:
            return ""
        tags: list[str] = []
        seen: set[tuple[str, str]] = set()
        for estimate in plan.estimates:
            if estimate.site is None or estimate.class_label is None:
                continue
            key = (estimate.site, estimate.class_label)
            if key in seen:
                continue
            seen.add(key)
            tag = self.server.model_tag(estimate.site, estimate.class_label)
            if tag is not None:
                version, form = tag[0], tag[1]
                tags.append(f"{key[0]}/{key[1]}=v{version}:{form}")
        return ",".join(sorted(tags))

    def _resolve_state(self, site: str, class_label: str) -> int | None:
        """The contention state the active model resolves to right now.

        Mirrors the optimizer's ``_resolve``: probing cost through the
        shared service (cached within its TTL, single-flighted across
        requests), middle state when probing degraded to ``None``.
        """
        try:
            model = self.server.catalog.registry.active_model(site, class_label)
        except CostModelRegistryError:
            return None
        cost = self.server.probing.probing_cost(site)
        if cost is None:
            return model.num_states // 2
        return model.state_for(cost)

    # -- stats -------------------------------------------------------------

    def stats(self) -> ServingStats:
        cache = self.plan_cache
        with self._stats_lock:
            counts = dict(self._counts)
        return ServingStats(
            submitted=counts["submitted"],
            admitted=counts["admitted"],
            rejected=counts["rejected"],
            completed=counts["completed"],
            failed=counts["failed"],
            timed_out=counts["timed_out"],
            plan_cache_hits=cache.hits if cache else 0,
            plan_cache_misses=cache.misses if cache else 0,
            plan_cache_evictions=cache.evictions if cache else 0,
            plan_cache_invalidated=cache.invalidated if cache else 0,
        )

    def _count(self, name: str) -> None:
        with self._stats_lock:
            self._counts[name] += 1

    def _take_index(self) -> int:
        with self._stats_lock:
            index = self._next_index
            self._next_index += 1
        return index
