"""The serving front end: plan cache and request bookkeeping.

:class:`ServingFrontEnd` sits in front of an
:class:`~repro.mdbs.server.MDBSServer` and serves
:class:`~repro.mdbs.gquery.GlobalJoinQuery` requests one at a time:
:meth:`~ServingFrontEnd.submit` plans, executes and traces the request
before it returns, so every ticket it hands back is terminal
(``completed`` or ``failed``).

Every decision is the server's; the front end only keeps plans:

1. **plan cache** — a request first asks
   :class:`~repro.serving.plan_cache.PlanCache` for a plan scored in the
   contention states the server's optimizer resolves right now
   (:meth:`~repro.mdbs.optimizer.GlobalQueryOptimizer.current_state`,
   probing through the server's TTL-cached
   :class:`~repro.mdbs.probing_service.ProbingService`); registry events
   (publish / activate / rollback) evict exactly the dependent entries;
2. **planning** — on a miss, or with the cache off, the plan is
   :meth:`~repro.mdbs.server.MDBSServer.optimize`'s choice, and a miss
   caches it under every candidate's states;
3. **execution** — ``server.execute`` with that plan.

With the cache off a request is ``server.execute(query,
server.optimize(query)[0])``, which is what ``server.execute(query)``
does on its own: same probes, same plan, same result.

A process serves on one thread; parallelism is more processes
(:class:`~repro.loadgen.coordinator.Coordinator` runs shards over a
process pool), never more threads.

Every request's outcome is counted in the global metrics registry
(``serving.completed`` / ``serving.failed``, and ``serving.plan_cache.hits``
on a cached plan), the totals the obs dashboard reads
(:mod:`repro.obs.expose`).  Submissions and the rest of the plan
cache's counts are :meth:`ServingFrontEnd.stats`; each ticket carries
its own ``latency_seconds``.

With a real tracer installed (``obs.enable`` / ``obs.set_tracer``),
every ticket additionally carries a **trace id**, and every request is
one nested span tree: ``serving.request`` → ``serving.plan`` /
``serving.execute``, with the ``mdbs.*`` spans beneath carrying
decision provenance — plan-cache hit/miss reason (eviction cause
included), active model ``version:form`` tags, estimate vs actual
seconds.  The root carries the request's final ``status`` (and
``error``, the exception type, when it failed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import obs
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.optimizer import GlobalPlan
from ..mdbs.server import GlobalExecution, MDBSServer
from .config import ServingConfig
from .plan_cache import PlanCache


def _trace_query_label(query: GlobalJoinQuery) -> str:
    """A compact, deterministic query identity for span attributes."""
    return (
        f"{query.left_site}.{query.left_table}"
        f"*{query.right_site}.{query.right_table}"
    )


@dataclass
class ServingTicket:
    """One served request and its outcome.

    Timestamps are real wall-clock (``time.monotonic``) seconds — the
    serving layer's latency is a genuine performance number, unlike the
    *simulated* seconds inside ``execution``.
    """

    query: GlobalJoinQuery
    index: int
    #: "completed" or "failed".
    status: str = "completed"
    execution: GlobalExecution | None = None
    error: BaseException | None = None
    #: "cache" | "optimizer" | None (not executed).
    plan_source: str | None = None
    #: The request's trace id (None when tracing was off at submission).
    trace_id: str | None = None
    submitted_at: float = 0.0
    finished_at: float = 0.0

    def wait(self, timeout: float | None = None) -> bool:
        """True: a ticket is finished when :meth:`ServingFrontEnd.submit`
        returns it."""
        return True

    @property
    def ok(self) -> bool:
        return self.status == "completed"

    @property
    def wait_seconds(self) -> float:
        """Seconds queued before execution: 0.0, nothing queues."""
        return 0.0

    @property
    def latency_seconds(self) -> float:
        """Real seconds from submission to completion (any outcome)."""
        return self.finished_at - self.submitted_at


@dataclass(frozen=True)
class ServingStats:
    """A snapshot of one front end's lifetime counts."""

    submitted: int
    completed: int
    failed: int
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    plan_cache_invalidated: int
    #: Always 0: every submitted request is executed.
    rejected: int = 0
    timed_out: int = 0


class ServingFrontEnd:
    """Plans, executes and traces global queries on the caller's thread."""

    def __init__(self, server: MDBSServer, config: ServingConfig | None = None) -> None:
        self.server = server
        self.config = config or ServingConfig()
        self.plan_cache: PlanCache | None = None
        if self.config.plan_cache:
            self.plan_cache = PlanCache(server.catalog.registry)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._started = False
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ServingFrontEnd":
        """Open the front end for submissions (idempotent)."""
        if self._closed:
            raise RuntimeError("front end already closed")
        self._started = True
        return self

    def close(self) -> None:
        """Stop accepting submissions and detach the plan cache (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.plan_cache is not None:
            self.plan_cache.close()

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -----------------------------------------------------------

    def submit(self, query: GlobalJoinQuery) -> ServingTicket:
        """Serve *query* now; returns its finished ticket."""
        if not self._started or self._closed:
            raise RuntimeError("front end is not running (use start() / `with`)")
        ticket = ServingTicket(
            query=query, index=self._submitted, submitted_at=time.monotonic()
        )
        self._submitted += 1
        tracer = obs.get_tracer()
        if not tracer.enabled:
            self._run(ticket)
        else:
            self._run_traced(ticket, tracer)
        return ticket

    def serve(self, queries: list[GlobalJoinQuery]) -> list[ServingTicket]:
        """Serve every query in order; returns their finished tickets."""
        return [self.submit(q) for q in queries]

    def warm(self, queries: list[GlobalJoinQuery]) -> int:
        """Prime the plan cache: optimize each query once, executing none.

        Returns the number of queries optimized (0 when the cache is
        off).
        """
        if self.plan_cache is None:
            return 0
        for query in queries:
            self._plan_for(query)
        return len(queries)

    def _run(self, ticket: ServingTicket) -> None:
        """Plan and execute one request, recording its outcome."""
        try:
            with obs.span("serving.plan") as plan_span:
                plan, source = self._plan_for(ticket.query, span=plan_span)
            with obs.span("serving.execute") as exec_span:
                execution = self.server.execute(ticket.query, plan)
                if exec_span.recording:
                    exec_span.set_attributes(
                        estimated_seconds=execution.estimated_seconds,
                        observed_seconds=execution.observed_seconds,
                        models=self._model_attr(execution.plan),
                    )
        except Exception as exc:  # a failed request fails its ticket only
            ticket.error = exc
            ticket.status = "failed"
            self._failed += 1
            obs.inc("serving.failed")
        else:
            ticket.execution = execution
            ticket.plan_source = source
            self._completed += 1
            obs.inc("serving.completed")
        ticket.finished_at = time.monotonic()

    def _run_traced(self, ticket: ServingTicket, tracer: obs.Tracer) -> None:
        """:meth:`_run` under the request's ``serving.request`` root span."""
        trace_id = ticket.trace_id = f"{self.config.trace_id_prefix}q{ticket.index:06d}"
        with tracer.span(
            "serving.request",
            trace_id=trace_id,
            index=ticket.index,
            query=_trace_query_label(ticket.query),
        ) as root:
            self._run(ticket)
            if ticket.error is not None:
                root.set_attribute("error", type(ticket.error).__name__)
            root.set_attribute("status", ticket.status)

    # -- planning ----------------------------------------------------------

    def _plan_for(
        self, query: GlobalJoinQuery, span: "obs.Span | None" = None
    ) -> tuple[GlobalPlan, str]:
        """(plan, source): the cached plan for the states the optimizer
        resolves now, else the server's choice (cached on a miss).
        *span* (the enclosing ``serving.plan`` span, when recording)
        receives the decision provenance: cache hit or the concrete miss
        reason, the chosen join site, the estimate, and the model
        version/form tags behind it."""
        cache = self.plan_cache
        plan, reason = None, "off"
        if cache is not None:
            plan, reason = cache.lookup(query, self.server.optimizer.current_state)
        source = "optimizer" if plan is None else "cache"
        if plan is None:
            plan, candidates = self.server.optimize(query)
            if cache is not None:
                cache.put(query, candidates, plan)
        if span is not None and span.recording:
            span.set_attributes(
                source=source,
                cache=reason,
                join_site=plan.join_site,
                estimated_seconds=plan.estimated_seconds,
                models=self._model_attr(plan),
            )
        return plan, source

    def _model_attr(self, plan: GlobalPlan) -> str:
        """The plan's model dependencies as ``site/class=vN:form`` tags."""
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

    # -- stats -------------------------------------------------------------

    def stats(self) -> ServingStats:
        cache = self.plan_cache
        return ServingStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            plan_cache_hits=cache.hits if cache else 0,
            plan_cache_misses=cache.misses if cache else 0,
            plan_cache_evictions=cache.evictions if cache else 0,
            plan_cache_invalidated=cache.invalidated if cache else 0,
        )
