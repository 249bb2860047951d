"""Contention-level traces: how loaded the local site is over time.

The paper reduces "numerous dynamic factors" (CPU load, I/O rate, memory
pressure, concurrent processes, ...) to their *combined net effect* — the
system contention level.  We simulate that level directly as a stochastic
process over simulated time, normalized to [0, 1]:

* 0.0 — idle system (the static environment of the baseline method);
* 1.0 — the most loaded the site ever gets.

Several trace families reproduce the paper's scenarios: a constant level
(static environment), piecewise-constant uniform draws (the "uniform"
dynamic case of §5), a bounded random walk (smooth drift), and a mixture
of clusters (the "clustered" case of Table 6 / Figure 10).

Traces are deterministic functions of (seed, time): the level during
epoch ``k`` (of configurable length) is drawn lazily in epoch order from
a seeded generator, so re-running an experiment replays the same load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ContentionTrace:
    """Abstract contention-level process."""

    def level_at(self, t: float) -> float:
        """Contention level in [0, 1] at simulated time *t*."""
        raise NotImplementedError


class ConstantContention(ContentionTrace):
    """A fixed contention level — models the static environment."""

    def __init__(self, level: float = 0.0) -> None:
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        self.level = level

    def level_at(self, t: float) -> float:
        return self.level


class _EpochTrace(ContentionTrace):
    """Base for piecewise-constant traces that draw one level per epoch."""

    def __init__(self, seed: int, epoch_seconds: float) -> None:
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        self.epoch_seconds = float(epoch_seconds)
        self._rng = np.random.default_rng(seed)
        self._levels: list[float] = []

    def level_at(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        epoch = int(t // self.epoch_seconds)
        while len(self._levels) <= epoch:
            self._levels.append(self._draw(len(self._levels)))
        return self._levels[epoch]

    def _draw(self, epoch: int) -> float:
        raise NotImplementedError


class UniformContention(_EpochTrace):
    """Each epoch's level is an independent Uniform(low, high) draw.

    This gives every contention level "an equal chance to be chosen for
    running a given sample query" (§3.3), the assumption behind the
    IUPMA algorithm's uniform partition.
    """

    def __init__(
        self,
        seed: int = 0,
        epoch_seconds: float = 30.0,
        low: float = 0.0,
        high: float = 1.0,
    ) -> None:
        super().__init__(seed, epoch_seconds)
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1")
        self.low = low
        self.high = high

    def _draw(self, epoch: int) -> float:
        return float(self._rng.uniform(self.low, self.high))


class RandomWalkContention(_EpochTrace):
    """A bounded random walk: smooth load drift, reflecting at [0, 1]."""

    def __init__(
        self,
        seed: int = 0,
        epoch_seconds: float = 30.0,
        step: float = 0.08,
        start: float = 0.5,
    ) -> None:
        super().__init__(seed, epoch_seconds)
        if step <= 0:
            raise ValueError("step must be positive")
        if not 0.0 <= start <= 1.0:
            raise ValueError("start must be in [0, 1]")
        self.step = step
        self.start = start
        self._current = start

    def _draw(self, epoch: int) -> float:
        if epoch == 0:
            return self.start
        nxt = self._current + float(self._rng.normal(0.0, self.step))
        # Reflect at the boundaries to keep the walk inside [0, 1].
        nxt = abs(nxt)
        if nxt > 1.0:
            nxt = 2.0 - nxt
        nxt = min(1.0, max(0.0, nxt))
        self._current = nxt
        return nxt


@dataclass(frozen=True)
class ContentionCluster:
    """One component of a clustered contention mixture."""

    weight: float
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must be in [0, 1]")
        if self.std < 0:
            raise ValueError("std must be non-negative")


#: The three-cluster mixture used by the Table 6 / Figure 10 experiments:
#: the site is usually lightly loaded, sometimes moderately, rarely heavily.
DEFAULT_CLUSTERS = (
    ContentionCluster(weight=0.45, mean=0.12, std=0.04),
    ContentionCluster(weight=0.35, mean=0.50, std=0.05),
    ContentionCluster(weight=0.20, mean=0.85, std=0.04),
)


class ClusteredContention(_EpochTrace):
    """Mixture-of-Gaussians contention: levels cluster in subranges.

    This is the non-uniform case the ICMA algorithm targets — "the
    contention level may occur more often in some subranges than the
    others" (§3.3).
    """

    def __init__(
        self,
        seed: int = 0,
        epoch_seconds: float = 30.0,
        clusters: Sequence[ContentionCluster] = DEFAULT_CLUSTERS,
    ) -> None:
        super().__init__(seed, epoch_seconds)
        if not clusters:
            raise ValueError("at least one cluster is required")
        self.clusters = tuple(clusters)
        total = sum(c.weight for c in self.clusters)
        self._weights = [c.weight / total for c in self.clusters]

    def _draw(self, epoch: int) -> float:
        idx = int(self._rng.choice(len(self.clusters), p=self._weights))
        cluster = self.clusters[idx]
        level = float(self._rng.normal(cluster.mean, cluster.std))
        return min(1.0, max(0.0, level))


@dataclass(frozen=True)
class SlowdownModel:
    """Maps a contention level to a query slowdown multiplier.

    ``slowdown(L) = 1 + linear * L + quadratic * L**2``

    Convex in L, matching the superlinear growth of Figure 1 (a query's
    cost climbing from 3.8 s to 124 s as concurrent processes grow from
    ~50 to ~130).  The default constants give a ~30x worst-case slowdown.
    """

    linear: float = 4.0
    quadratic: float = 26.0

    def slowdown(self, level: float) -> float:
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        return 1.0 + self.linear * level + self.quadratic * level * level


#: Mapping between contention level and the paper's "number of concurrent
#: processes" axis (Figure 1 sweeps roughly 50..130 processes).
PROCESS_BASELINE = 50
PROCESS_SPAN = 80


def level_to_processes(level: float) -> int:
    """Contention level -> simulated number of concurrent processes."""
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must be in [0, 1]")
    return PROCESS_BASELINE + int(round(level * PROCESS_SPAN))


def processes_to_level(processes: int) -> float:
    """Simulated number of concurrent processes -> contention level."""
    level = (processes - PROCESS_BASELINE) / PROCESS_SPAN
    if not 0.0 <= level <= 1.0:
        raise ValueError(
            f"process count {processes} outside the modeled range "
            f"[{PROCESS_BASELINE}, {PROCESS_BASELINE + PROCESS_SPAN}]"
        )
    return level
