"""The probing service: cached, shared, degradation-tolerant probing.

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
* **sharing** — callers fetch a site's reading once per optimization
  and share it across candidate plans, so one ``choose()`` executes at
  most one probing query per site; within the TTL, later requests share
  the cached reading too.  Only an executed probe feeds the accuracy
  tracker, so a shared reading lands in the tracker's probe window
  exactly once;
* **graceful degradation** — when a probe cannot be executed the
  service falls back, in order: observed probe → monitor-estimated
  probe (paper eq. (2)) → last-known reading → *no reading*
  (``cost=None``), which the optimizer turns into a static one-state
  prediction.  Every reading names the level it came from in
  :attr:`ProbeReading.source`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .agent import MDBSAgent

@dataclass(frozen=True)
class ProbeReading:
    """One probing-cost determination for a site.

    ``cost`` is None only at the last fallback level ("static"): no
    probe could be executed and no previous reading exists, so the
    consumer must fall back to a contention-agnostic prediction.
    """

    cost: float | None
    #: Fallback level: "observed", "estimated", "last_known" or "static".
    source: str
    at_time: float  # simulated time of the determination


class ProbingService:
    """Per-site probing costs with a simulated-time TTL cache."""

    def __init__(
        self,
        agents: dict[str, MDBSAgent],
        ttl: float = 0.0,
        tracker=None,
    ) -> None:
        if ttl < 0:
            raise ValueError("ttl must be >= 0 (0 disables the cache)")
        #: Live mapping shared with the owner (e.g. the MDBS server), so
        #: sites registered later are immediately probe-able.
        self.agents = agents
        self.ttl = float(ttl)
        #: Optional :class:`~repro.obs.quality.AccuracyTracker` fed every
        #: executed reading, so drift rules can watch the probing-cost
        #: distribution against the models' partitioned state ranges.
        #: Cache hits do NOT re-feed the tracker: one executed probe =
        #: one tracker sample, however many requests share the reading.
        self.tracker = tracker
        self._cache: dict[str, ProbeReading] = {}
        #: Probes actually executed (observed or estimated), per site.
        self.probes_executed: dict[str, int] = {}
        self.cache_hits = 0
        #: Always 0: one caller at a time never waits on another's probe.
        self.coalesced = 0

    # -- the serving API -------------------------------------------------

    def probing_cost(self, site: str) -> float | None:
        """Current probing cost for *site* (None = degrade to static)."""
        return self.probe(site).cost

    def probe(self, site: str) -> ProbeReading:
        """Current :class:`ProbeReading` for *site*, cached within the TTL.

        A cached reading is served while ``0 <= now - at_time <= ttl``
        (closed interval: ``age == ttl`` is a hit).
        """
        try:
            agent = self.agents[site]
        except KeyError:
            raise KeyError(f"no agent registered for site {site!r}") from None
        now = agent.database.environment.now
        reading = self._fresh(self._cache.get(site), now)
        if reading is not None:
            self.cache_hits += 1
            return reading
        with obs.span("mdbs.probe.service") as sp:
            if sp.recording:
                sp.set_attribute("site", site)
            reading = self._acquire(agent, now, sp)
            if sp.recording:
                sp.set_attributes(
                    outcome="executed", source=reading.source, cost=reading.cost
                )
            if reading.cost is not None:
                self._cache[site] = reading
            return reading

    def invalidate(self, site: str | None = None) -> None:
        """Drop cached readings (one site, or all of them)."""
        if site is None:
            self._cache.clear()
        else:
            self._cache.pop(site, None)

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

    def _acquire(self, agent: MDBSAgent, now: float, sp) -> ProbeReading:
        for mode, read in (
            ("observed", agent.observed_probing_cost),
            ("estimated", agent.estimated_probing_cost),
        ):
            try:
                cost = read()
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
            if self.tracker is not None:
                self.tracker.record_probe(agent.site, cost, at_time=now)
            return ProbeReading(cost, mode, now)
        last = self._cache.get(agent.site)
        if last is not None and last.cost is not None:
            return ProbeReading(last.cost, "last_known", now)
        return ProbeReading(None, "static", now)
