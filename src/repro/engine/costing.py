"""Turn execution metrics into simulated elapsed time.

The elapsed time of a query is modeled as

    elapsed = (t_init + I/O time + CPU time) * slowdown(contention) * noise

where the *slowdown* multiplier comes from the environment simulator
(:mod:`repro.env`) and the multiplicative noise models measurement
jitter.  Crucially the contention multiplier scales the initialization,
I/O, *and* CPU components — the paper's §3.2 argument for why the
*general* qualitative regression form (state-specific intercept and
slopes) is the right one.  Resources such as disk bandwidth and CPU are
shared among concurrent processes, so a loaded system stretches every
component of a query's response time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import ExecutionMetrics
from .profiles import DBMSProfile


@dataclass(frozen=True)
class ElapsedBreakdown:
    """Decomposition of one query's simulated elapsed time."""

    init_time: float
    io_time: float
    cpu_time: float
    slowdown: float
    noise: float

    @property
    def base_time(self) -> float:
        """Unloaded-system elapsed time."""
        return self.init_time + self.io_time + self.cpu_time

    @property
    def elapsed(self) -> float:
        """Elapsed time under the current contention, with noise."""
        return self.base_time * self.slowdown * self.noise


def base_components(
    metrics: ExecutionMetrics, profile: DBMSProfile
) -> tuple[float, float, float]:
    """(init, io, cpu) times in seconds on an unloaded system."""
    io_time = (
        metrics.sequential_page_reads * profile.t_seq_page
        + metrics.random_page_reads * profile.t_rand_page
    )
    cpu_time = (
        metrics.tuples_read * profile.t_tuple_read
        + metrics.tuples_evaluated * profile.t_tuple_eval
        + metrics.tuples_output * profile.t_tuple_out
        + metrics.sort_comparisons * profile.t_sort_cmp
        + metrics.hash_operations * profile.t_hash_op
    )
    return profile.t_init, io_time, cpu_time


def simulate_elapsed(
    metrics: ExecutionMetrics,
    profile: DBMSProfile,
    slowdown: float = 1.0,
    noise: float = 1.0,
) -> ElapsedBreakdown:
    """Build the :class:`ElapsedBreakdown` for one execution.

    Parameters
    ----------
    metrics:
        Work counters reported by the plan.
    profile:
        The local DBMS's per-operation time constants.
    slowdown:
        Contention multiplier (>= 1 on a loaded system).
    noise:
        Multiplicative measurement noise (1.0 = noiseless).
    """
    if slowdown <= 0:
        raise ValueError("slowdown must be positive")
    if noise <= 0:
        raise ValueError("noise must be positive")
    init_time, io_time, cpu_time = base_components(metrics, profile)
    return ElapsedBreakdown(
        init_time=init_time,
        io_time=io_time,
        cpu_time=cpu_time,
        slowdown=slowdown,
        noise=noise,
    )
