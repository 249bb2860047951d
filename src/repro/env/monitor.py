"""The environment monitor of the MDBS agent.

Paper §4.1: "The MDBS agent may also have an environment monitor which
collects system statistics used for estimating the probing query costs
when the estimation approach in Section 3.3 is employed."

The monitor samples :class:`~repro.env.stats.SystemStatistics` snapshots
from its environment, optionally spacing observations in simulated time.
"""

from __future__ import annotations

from .environment import Environment
from .processes import ProcessTable
from .stats import SystemStatistics


class EnvironmentMonitor:
    """Collects system-statistics snapshots from a local environment."""

    def __init__(self, environment: Environment, seed: int = 0) -> None:
        self.environment = environment
        self._processes = ProcessTable(
            machine=environment.stats_model.machine, seed=seed
        )

    def statistics(self) -> SystemStatistics:
        """One snapshot at the current simulated time."""
        return self.environment.snapshot()

    def top(self, n: int = 10) -> str:
        """A `top`-style rendering of the busiest processes right now."""
        return self._processes.top(
            self.environment.level(), n=n, at_time=self.environment.now
        )

    def observe(self, count: int, interval_seconds: float = 5.0) -> list[SystemStatistics]:
        """Collect *count* snapshots, advancing time between them.

        Advancing the clock means successive observations can land in
        different contention epochs — the monitor sees the environment
        change, just as a daemon polling ``vmstat`` would.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if interval_seconds < 0:
            raise ValueError("interval_seconds must be non-negative")
        snapshots = []
        for i in range(count):
            snapshots.append(self.environment.snapshot())
            if i != count - 1:
                self.environment.advance(interval_seconds)
        return snapshots
