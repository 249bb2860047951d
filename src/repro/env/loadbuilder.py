"""The load builder: installs dynamic loads into a local environment.

Paper §4.1 / §5: "A load builder, which is part of the MDBS agent for
each local DBS, is used to simulate a dynamic application environment at
a local site during the query sampling procedure."  This class is that
component — it swaps contention traces in and out of an
:class:`~repro.env.environment.Environment`.
"""

from __future__ import annotations

from typing import Sequence

from .contention import (
    ClusteredContention,
    ConstantContention,
    ContentionCluster,
    DEFAULT_CLUSTERS,
    RandomWalkContention,
    UniformContention,
)
from .environment import Environment


class LoadBuilder:
    """Controls the simulated load at one local site."""

    def __init__(self, environment: Environment, seed: int = 0) -> None:
        self.environment = environment
        self.seed = seed

    def constant(self, level: float) -> Environment:
        """Hold the contention level fixed at *level*."""
        self.environment.trace = ConstantContention(level)
        return self.environment

    def uniform(
        self, low: float = 0.0, high: float = 1.0, epoch_seconds: float = 30.0
    ) -> Environment:
        """Uniformly distributed load over [low, high]."""
        self.environment.trace = UniformContention(
            seed=self.seed, epoch_seconds=epoch_seconds, low=low, high=high
        )
        return self.environment

    def random_walk(
        self, step: float = 0.08, start: float = 0.5, epoch_seconds: float = 30.0
    ) -> Environment:
        """Smoothly drifting load."""
        self.environment.trace = RandomWalkContention(
            seed=self.seed, epoch_seconds=epoch_seconds, step=step, start=start
        )
        return self.environment

    def clustered(
        self,
        clusters: Sequence[ContentionCluster] = DEFAULT_CLUSTERS,
        epoch_seconds: float = 30.0,
    ) -> Environment:
        """Load concentrated in a few contention subranges."""
        self.environment.trace = ClusteredContention(
            seed=self.seed, epoch_seconds=epoch_seconds, clusters=clusters
        )
        return self.environment
