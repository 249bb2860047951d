"""Fault injection for the load-generation harness.

A :class:`FaultSchedule` scripts site disturbances at *simulated-time*
offsets — the same clock the cost models, probing service, and drift
detector live on — so a fault timeline is part of a shard's
deterministic identity, not a wall-clock race:

* ``outage`` — the site stops answering probing queries (the agent's
  probe is swapped for :class:`UnavailableProbe`, which raises on every
  ``observe()``) while its contention pins near saturation.  The
  probing service degrades observed → estimated → last-known, so the
  optimizer keeps planning against a *stale calm* reading — exactly the
  blind spot the accuracy windows then expose (the ``good_band`` drift
  rule fires, not ``probe_escape``: no fresh probes exist to escape);
* ``slowdown`` — the site's contention pins at a high level but probes
  still execute, so probing costs inflate out of the model's derived
  [Cmin, Cmax] range.  Either accuracy rule may fire first — the
  ``good_band`` window usually collapses before ``probe_escape``
  accumulates enough fresh readings — which is why the fault tests
  assert detection and recovery, not a specific rule.

Recovery restores the saved probe and re-installs the shard scenario's
own contention trace.  The drift loop's job — and what the fault tests
assert — is to detect each disturbance, force a re-derivation through
the registry, and return accuracy to the §5 good band after the fault
clears.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..env.loadbuilder import LoadBuilder
from ..mdbs.agent import MDBSAgent

#: Named fault plans (see :func:`named_fault_plan`).
FAULT_PLANS = ("none", "outage", "slowdown", "mixed")

#: Kinds an event may carry.
FAULT_KINDS = ("outage", "slowdown")


class SiteOutageError(RuntimeError):
    """Raised by :class:`UnavailableProbe`: the site is down for probing."""


class UnavailableProbe:
    """A probing stub standing in for a site that stopped responding."""

    def __init__(self, site: str) -> None:
        self.site = site

    def observe(self) -> float:
        raise SiteOutageError(f"site {self.site!r} is not answering probes")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted disturbance of a shard's variable site."""

    #: Shard index the event targets (shards are the determinism unit).
    shard: int
    #: "outage" | "slowdown".
    kind: str
    #: Simulated seconds (site clock) at which the fault begins.
    at_seconds: float
    #: Simulated seconds the fault lasts.
    duration_seconds: float
    #: Contention level pinned while the fault is active.
    level: float = 0.9

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")

    @property
    def ends_at(self) -> float:
        return self.at_seconds + self.duration_seconds


@dataclass(frozen=True)
class FaultSchedule:
    """Every scripted fault of one load-generation run."""

    events: tuple[FaultEvent, ...] = ()

    def for_shard(self, shard: int) -> tuple[FaultEvent, ...]:
        """This shard's events, ordered by onset time."""
        return tuple(
            sorted(
                (e for e in self.events if e.shard == shard),
                key=lambda e: e.at_seconds,
            )
        )

    def __len__(self) -> int:
        return len(self.events)


def named_fault_plan(
    name: str, shards: int, rounds: int, gap_seconds: float
) -> FaultSchedule:
    """The canned fault schedules, sized to the run shape.

    Faults start about a quarter of the way through the timeline and
    last another quarter, leaving roughly half the rounds for the drift
    loop to detect, rebuild, and prove recovery after the clear.
    """
    if name not in FAULT_PLANS:
        raise ValueError(f"unknown fault plan {name!r}; pick from {FAULT_PLANS}")
    if name == "none":
        return FaultSchedule()
    onset = gap_seconds * max(2, rounds // 4)
    duration = gap_seconds * max(3, rounds // 4)
    outage = FaultEvent(
        shard=0, kind="outage", at_seconds=onset,
        duration_seconds=duration, level=0.98,
    )
    slowdown = FaultEvent(
        shard=1 % shards, kind="slowdown", at_seconds=onset,
        duration_seconds=duration, level=0.9,
    )
    if name == "outage":
        return FaultSchedule((outage,))
    if name == "slowdown":
        return FaultSchedule((slowdown,))
    events = [outage]
    if shards > 1:
        events.append(slowdown)
    return FaultSchedule(tuple(events))


class FaultInjector:
    """Applies one shard's fault timeline to its variable site.

    Called once per served round with the site's current simulated time;
    activations and expiries depend only on that clock, so the fault
    trajectory is identical wherever the shard runs.  One fault is
    active at a time (the named plans never overlap a shard's events;
    overlapping custom events activate in onset order, later ones
    replacing earlier ones).
    """

    def __init__(
        self,
        events: tuple[FaultEvent, ...],
        agent: MDBSAgent,
        load_builder: LoadBuilder,
        restore_trace,
    ) -> None:
        self._timeline = sorted(events, key=lambda e: e.at_seconds)
        self.agent = agent
        self.load_builder = load_builder
        #: Zero-argument callable re-installing the scenario's own trace.
        self._restore_trace = restore_trace
        self.active: FaultEvent | None = None
        self._saved_probe = None
        #: (simulated time, "kind:applied|cleared"), oldest first.
        self.transitions: list[tuple[float, str]] = []

    def step(self, now: float) -> list[str]:
        """Advance the timeline to *now*; returns this round's transitions."""
        notes: list[str] = []
        if self.active is not None and now >= self.active.ends_at:
            self._clear(now, notes)
        while self._timeline and now >= self._timeline[0].at_seconds:
            event = self._timeline.pop(0)
            if now >= event.ends_at:
                continue  # fell entirely between two served rounds
            self._activate(event, now, notes)
        return notes

    def _activate(self, event: FaultEvent, now: float, notes: list[str]) -> None:
        if self.active is not None:
            self._clear(now, notes)
        self.active = event
        if event.kind == "outage":
            self._saved_probe = self.agent.probe
            self.agent.probe = UnavailableProbe(self.agent.site)
        self.load_builder.constant(event.level)
        note = f"{event.kind}:applied"
        self.transitions.append((now, note))
        notes.append(note)

    def _clear(self, now: float, notes: list[str]) -> None:
        event = self.active
        assert event is not None
        if self._saved_probe is not None:
            self.agent.probe = self._saved_probe
            self._saved_probe = None
        self._restore_trace()
        self.active = None
        note = f"{event.kind}:cleared"
        self.transitions.append((now, note))
        notes.append(note)
