"""The simulated local-site environment: clock + contention + statistics.

An :class:`Environment` is what a :class:`~repro.engine.database.LocalDatabase`
runs "inside": it supplies the contention level (and hence the query
slowdown multiplier) at the current simulated time, advances time as
queries execute, and produces system-statistics snapshots for the
environment monitor.
"""

from __future__ import annotations

from .clock import SimulationClock
from .contention import (
    ClusteredContention,
    ConstantContention,
    ContentionTrace,
    SlowdownModel,
    UniformContention,
)
from .stats import StatisticsModel, SystemStatistics


class Environment:
    """A local site's dynamic execution environment."""

    def __init__(
        self,
        trace: ContentionTrace | None = None,
        slowdown_model: SlowdownModel | None = None,
        stats_model: StatisticsModel | None = None,
        clock: SimulationClock | None = None,
    ) -> None:
        self.trace: ContentionTrace = trace or ConstantContention(0.0)
        self.slowdown_model = slowdown_model or SlowdownModel()
        self.stats_model = stats_model or StatisticsModel()
        self.clock = clock or SimulationClock()

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def advance(self, seconds: float) -> None:
        """Advance simulated time (queries call this with their elapsed time)."""
        self.clock.advance(seconds)

    # -- contention ----------------------------------------------------------

    def level(self) -> float:
        """Contention level in [0, 1] right now."""
        return self.trace.level_at(self.clock.now)

    def slowdown(self) -> float:
        """Query slowdown multiplier right now (>= 1)."""
        return self.slowdown_model.slowdown(self.level())

    # -- observation ------------------------------------------------------------

    def snapshot(self) -> SystemStatistics:
        """A Table-1 system-statistics snapshot at the current level."""
        return self.stats_model.snapshot(self.level())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Environment(t={self.now:.1f}s, level={self.level():.3f}, "
            f"slowdown={self.slowdown():.2f}x)"
        )


def static_environment() -> Environment:
    """An idle, unchanging site — the baseline method's assumption."""
    return Environment(trace=ConstantContention(0.0))


def dynamic_uniform_environment(seed: int = 0, epoch_seconds: float = 30.0) -> Environment:
    """Uniformly distributed contention — §5's main experimental setting."""
    return Environment(
        trace=UniformContention(seed=seed, epoch_seconds=epoch_seconds),
        stats_model=StatisticsModel(seed=seed + 1),
    )


def dynamic_clustered_environment(seed: int = 0, epoch_seconds: float = 30.0) -> Environment:
    """Clustered contention — the Table 6 / Figure 10 setting."""
    return Environment(
        trace=ClusteredContention(seed=seed, epoch_seconds=epoch_seconds),
        stats_model=StatisticsModel(seed=seed + 1),
    )
