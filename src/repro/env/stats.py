"""Unix-style system statistics derived from the contention level.

Paper Table 1 enumerates the frequently-changing statistics an operating
system exposes (``top``, ``vmstat``, ``sar``, ...).  The simulator
produces a :class:`SystemStatistics` snapshot with those fields, each a
noisy monotone function of the underlying contention level.  Two parts of
the reproduction consume these snapshots:

* the *environment monitor* of the MDBS agent, and
* the probing-cost **estimation** variant of §3.3, which regresses the
  probing query's cost on "major system contention parameters (such as
  CPU load, I/O utilization, and size of used memory space)" — i.e. on
  fields of this snapshot — so the state can be determined without
  actually executing the probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contention import level_to_processes


@dataclass(frozen=True)
class SystemStatistics:
    """One snapshot of the Table-1 statistics (simulated)."""

    # -- CPU statistics -------------------------------------------------
    running_processes: int
    sleeping_processes: int
    stopped_processes: int
    zombie_processes: int
    pct_user_time: float
    pct_system_time: float
    pct_idle_time: float
    load_avg_1: float
    load_avg_5: float
    load_avg_15: float
    # -- memory statistics ----------------------------------------------
    available_memory_mb: float
    used_memory_mb: float
    shared_memory_mb: float
    buffer_memory_mb: float
    available_swap_mb: float
    used_swap_mb: float
    free_swap_mb: float
    cached_swap_mb: float
    swapped_in_mb: float
    swapped_out_mb: float
    # -- I/O statistics ----------------------------------------------------
    reads_per_sec: float
    writes_per_sec: float
    pct_disk_utilization: float
    # -- other statistics ---------------------------------------------------
    current_users: int
    interrupts_per_sec: float
    context_switches_per_sec: float
    system_calls_per_sec: float

    def as_vector(self, names: tuple[str, ...]) -> np.ndarray:
        """Extract the named fields as a float vector (for regression)."""
        return np.array([float(getattr(self, n)) for n in names])


#: The "major system contention parameters" used by default when
#: estimating probing costs (paper eq. (2) names CPU load, I/O
#: utilization, and used memory).
MAJOR_CONTENTION_PARAMETERS = (
    "load_avg_1",
    "pct_disk_utilization",
    "used_memory_mb",
)


@dataclass(frozen=True)
class MachineSpec:
    """Static capacity of the simulated local host (a steady factor)."""

    total_memory_mb: float = 1024.0
    total_swap_mb: float = 2048.0
    base_sleeping_processes: int = 40
    cpu_count: int = 2


class StatisticsModel:
    """Generates :class:`SystemStatistics` snapshots from a contention level.

    Every statistic is a deterministic monotone function of the level plus
    bounded multiplicative noise, so the snapshot genuinely *carries* the
    contention signal (which is what makes eq. (2)'s estimation work) while
    individual readings still jitter (which is what makes it imperfect).
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        noise: float = 0.05,
        seed: int = 0,
    ) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.machine = machine or MachineSpec()
        self.noise = noise
        self._rng = np.random.default_rng(seed)

    def _jitter(self) -> float:
        if self.noise == 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self.noise)))

    def snapshot(self, level: float) -> SystemStatistics:
        """Produce one snapshot at contention *level* in [0, 1]."""
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        m = self.machine
        procs = level_to_processes(level)
        running = max(1, int(round(procs * (0.2 + 0.5 * level) * self._jitter())))
        busy = min(99.0, (8.0 + 88.0 * level) * self._jitter())
        pct_user = busy * 0.7
        pct_system = busy * 0.3
        used_mem = min(
            m.total_memory_mb * 0.98,
            m.total_memory_mb * (0.25 + 0.70 * level) * self._jitter(),
        )
        used_swap = min(
            m.total_swap_mb * 0.9,
            m.total_swap_mb * 0.45 * max(0.0, level - 0.5) * self._jitter(),
        )
        load1 = m.cpu_count * (0.3 + 5.0 * level) * self._jitter()
        return SystemStatistics(
            running_processes=running,
            sleeping_processes=m.base_sleeping_processes + procs - running,
            stopped_processes=int(2 * level * self._jitter()),
            zombie_processes=int(1 * level * self._jitter()),
            pct_user_time=pct_user,
            pct_system_time=pct_system,
            pct_idle_time=max(0.0, 100.0 - pct_user - pct_system),
            load_avg_1=load1,
            load_avg_5=load1 * 0.9,
            load_avg_15=load1 * 0.8,
            available_memory_mb=m.total_memory_mb - used_mem,
            used_memory_mb=used_mem,
            shared_memory_mb=used_mem * 0.15,
            buffer_memory_mb=used_mem * 0.25,
            available_swap_mb=m.total_swap_mb - used_swap,
            used_swap_mb=used_swap,
            free_swap_mb=m.total_swap_mb - used_swap,
            cached_swap_mb=used_swap * 0.3,
            swapped_in_mb=used_swap * 0.05 * self._jitter(),
            swapped_out_mb=used_swap * 0.04 * self._jitter(),
            reads_per_sec=(5.0 + 220.0 * level) * self._jitter(),
            writes_per_sec=(2.0 + 120.0 * level) * self._jitter(),
            pct_disk_utilization=min(100.0, (4.0 + 92.0 * level) * self._jitter()),
            current_users=1 + int(round(9 * level * self._jitter())),
            interrupts_per_sec=(120.0 + 2400.0 * level) * self._jitter(),
            context_switches_per_sec=(180.0 + 5200.0 * level) * self._jitter(),
            system_calls_per_sec=(400.0 + 9000.0 * level) * self._jitter(),
        )
