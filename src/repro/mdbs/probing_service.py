"""The probing service: cached, coalesced, degradation-tolerant probing.

The multi-states method resolves a model's contention state from a
*current* probing cost (§3.3), which in the seed architecture meant the
global optimizer executed probing queries straight through the agents.
This service centralizes that serving-side concern:

* **cache** — one probing-cost reading per site, keyed on the site's
  *simulated* time with a configurable TTL.  ``ttl=0`` disables caching
  entirely, reproducing the always-fresh-probe behavior byte for byte.
  TTL semantics are a **closed interval**: a reading whose age satisfies
  ``0 <= age <= ttl`` is a hit — a probe exactly at ``age == ttl`` is
  still served from cache (tests pin this boundary);
* **coalescing** — callers fetch a site's reading once per optimization
  and share it across candidate plans, so one ``choose()`` executes at
  most one probing query per site.  *Across* requests, a per-site
  single-flight lock extends the same guarantee to concurrent
  optimizations: when many pool workers need the same site's reading
  within one TTL window, exactly one executes the probe and the rest
  wait and share it (``mdbs.probing.coalesced`` counts the sharers).
  Because only the executing acquisition feeds the accuracy tracker,
  a shared probe lands in the tracker's probe window exactly once — no
  double-counted samples however many requests it served;
* **graceful degradation** — when a probe cannot be executed the
  service falls back, in order: observed probe → monitor-estimated
  probe (paper eq. (2)) → last-known reading → *no reading*
  (``cost=None``), which the optimizer turns into a static one-state
  prediction.  Every fallback level taken is counted in
  ``mdbs.probing.source.*``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .. import obs
from .agent import MDBSAgent

#: Fallback levels, in degradation order.
PROBE_SOURCES = ("observed", "estimated", "last_known", "static")


@dataclass(frozen=True)
class ProbeReading:
    """One probing-cost determination for a site.

    ``cost`` is None only at the last fallback level ("static"): no
    probe could be executed and no previous reading exists, so the
    consumer must fall back to a contention-agnostic prediction.
    """

    cost: float | None
    source: str  # one of PROBE_SOURCES
    at_time: float  # simulated time of the determination


class ProbingService:
    """Per-site probing costs with a simulated-time TTL cache.

    *locks* optionally shares a per-site lock table with the owning
    server: the same lock then serializes a site's probe execution with
    plan execution at that site, keeping the simulated clock and the
    engine single-writer per site.  When omitted the service keeps a
    private table (single-flight behavior is identical either way).
    """

    def __init__(
        self,
        agents: dict[str, MDBSAgent],
        ttl: float = 0.0,
        prefer_estimated: bool = False,
        tracker=None,
        locks: dict[str, threading.RLock] | None = None,
    ) -> None:
        if ttl < 0:
            raise ValueError("ttl must be >= 0 (0 disables the cache)")
        #: Live mapping shared with the owner (e.g. the MDBS server), so
        #: sites registered later are immediately probe-able.
        self.agents = agents
        self.ttl = float(ttl)
        self.prefer_estimated = prefer_estimated
        #: Optional :class:`~repro.obs.quality.AccuracyTracker` fed every
        #: executed reading, so drift rules can watch the probing-cost
        #: distribution against the models' partitioned state ranges.
        #: Cache hits and coalesced sharers do NOT re-feed the tracker:
        #: one executed probe = one tracker sample, idempotent however
        #: many concurrent requests share the reading.
        self.tracker = tracker
        self._cache: dict[str, ProbeReading] = {}
        #: Per-site single-flight locks (possibly shared with the server).
        self._locks = locks if locks is not None else {}
        #: Probes actually executed (observed or estimated), per site —
        #: local bookkeeping for experiments; obs counters carry the
        #: global view.
        self.probes_executed: dict[str, int] = {}
        self.cache_hits = 0
        #: Cache hits served to callers that blocked on the site lock
        #: while another request refreshed the reading — cross-request
        #: probe sharing at work.
        self.coalesced = 0

    # -- the serving API -------------------------------------------------

    def probing_cost(self, site: str, prefer_estimated: bool | None = None) -> float | None:
        """Current probing cost for *site* (None = degrade to static)."""
        return self.probe(site, prefer_estimated).cost

    def probe(self, site: str, prefer_estimated: bool | None = None) -> ProbeReading:
        """Current :class:`ProbeReading` for *site*, cached within the TTL.

        A cached reading is served while ``0 <= now - at_time <= ttl``
        (closed interval: ``age == ttl`` is a hit).  Concurrent callers
        single-flight behind a per-site lock, so at most one probing
        query per site is in flight at any moment.
        """
        try:
            agent = self.agents[site]
        except KeyError:
            raise KeyError(f"no agent registered for site {site!r}") from None
        # Fast path: a fresh reading needs no lock (dict reads are atomic
        # under the GIL, and readings are immutable).
        before = self._cache.get(site)
        reading = self._fresh(before, agent.database.environment.now)
        if reading is not None:
            self.cache_hits += 1
            obs.inc("mdbs.probing.cache_hits")
            return reading
        # The span opens *before* the lock: its duration includes any
        # single-flight wait, so traces attribute time blocked behind
        # another request's probe as probe time (outcome says which).
        # The lock-free fresh-cache fast path above stays span-free.
        with obs.span("mdbs.probe.service", site=site) as sp, self._site_lock(site):
            now = agent.database.environment.now
            cached = self._cache.get(site)
            reading = self._fresh(cached, now)
            if reading is not None:
                # Refreshed while we waited for the lock: this caller
                # shares the probe another request just executed.
                self.cache_hits += 1
                obs.inc("mdbs.probing.cache_hits")
                if cached is not before:
                    self.coalesced += 1
                    obs.inc("mdbs.probing.coalesced")
                    if sp.recording:
                        sp.set_attributes(outcome="coalesced")
                elif sp.recording:
                    sp.set_attributes(outcome="cached")
                if sp.recording:
                    sp.set_attributes(source=reading.source, cost=reading.cost)
                return reading
            obs.inc("mdbs.probing.cache_misses")
            reading = self._acquire(agent, now, prefer_estimated, sp)
            if sp.recording:
                sp.set_attributes(
                    outcome="executed", source=reading.source, cost=reading.cost
                )
            if reading.cost is not None:
                self._cache[site] = reading
            obs.set_gauge("mdbs.probing.cache_size", len(self._cache))
            return reading

    def invalidate(self, site: str | None = None) -> None:
        """Drop cached readings (one site, or all of them)."""
        if site is None:
            self._cache.clear()
        else:
            self._cache.pop(site, None)
        obs.set_gauge("mdbs.probing.cache_size", len(self._cache))

    # -- acquisition + degradation chain ---------------------------------

    def _fresh(self, cached: ProbeReading | None, now: float) -> ProbeReading | None:
        """*cached* if it is servable at simulated time *now*, else None."""
        if (
            cached is not None
            and self.ttl > 0
            and 0.0 <= now - cached.at_time <= self.ttl
        ):
            return cached
        return None

    def _site_lock(self, site: str) -> threading.RLock:
        # dict.setdefault is atomic under the GIL, so concurrent first
        # probes of a site agree on one lock without a meta-lock.
        return self._locks.setdefault(site, threading.RLock())

    def _acquire(
        self, agent: MDBSAgent, now: float, prefer_estimated: bool | None, sp
    ) -> ProbeReading:
        prefer = self.prefer_estimated if prefer_estimated is None else prefer_estimated
        modes = ("estimated", "observed") if prefer else ("observed", "estimated")
        for mode in modes:
            try:
                if mode == "observed":
                    cost = agent.observed_probing_cost()
                else:
                    cost = agent.estimated_probing_cost()
            except Exception as exc:
                # Degradation is the contract here: a failed probe (the
                # probe table vanished, the estimator is uncalibrated)
                # must not fail the optimization that asked for it — but
                # the trace says what each failed mode raised.
                if sp.recording:
                    sp.set_attribute(f"{mode}_error", type(exc).__name__)
                continue
            self.probes_executed[agent.site] = (
                self.probes_executed.get(agent.site, 0) + 1
            )
            obs.inc(f"mdbs.probing.executed.{agent.site}")
            obs.inc(f"mdbs.probing.source.{mode}")
            if self.tracker is not None:
                self.tracker.record_probe(agent.site, cost, at_time=now)
            return ProbeReading(cost, mode, now)
        last = self._cache.get(agent.site)
        if last is not None and last.cost is not None:
            obs.inc("mdbs.probing.source.last_known")
            return ProbeReading(last.cost, "last_known", now)
        obs.inc("mdbs.probing.source.static")
        return ProbeReading(None, "static", now)
