"""Unit tests for the system-statistics simulator (Table 1 fields)."""

import dataclasses

import numpy as np
import pytest

from repro.env.stats import (
    MAJOR_CONTENTION_PARAMETERS,
    MachineSpec,
    StatisticsModel,
    SystemStatistics,
)


@pytest.fixture
def model():
    return StatisticsModel(noise=0.0, seed=1)


class TestSnapshotFields:
    def test_table1_cpu_fields_present(self, model):
        snap = model.snapshot(0.5)
        for field in (
            "running_processes",
            "sleeping_processes",
            "stopped_processes",
            "zombie_processes",
            "pct_user_time",
            "pct_system_time",
            "pct_idle_time",
            "load_avg_1",
            "load_avg_5",
            "load_avg_15",
        ):
            assert hasattr(snap, field)

    def test_table1_memory_io_other_fields_present(self, model):
        snap = model.snapshot(0.5)
        for field in (
            "available_memory_mb",
            "used_memory_mb",
            "used_swap_mb",
            "swapped_in_mb",
            "reads_per_sec",
            "writes_per_sec",
            "pct_disk_utilization",
            "current_users",
            "interrupts_per_sec",
            "context_switches_per_sec",
            "system_calls_per_sec",
        ):
            assert hasattr(snap, field)

    def test_major_parameters_are_real_fields(self):
        names = {field.name for field in dataclasses.fields(SystemStatistics)}
        assert set(MAJOR_CONTENTION_PARAMETERS) <= names

    def test_cpu_percentages_sum_to_100(self, model):
        snap = model.snapshot(0.3)
        total = snap.pct_user_time + snap.pct_system_time + snap.pct_idle_time
        assert total == pytest.approx(100.0, abs=0.5)

    def test_memory_conserved(self, model):
        spec = MachineSpec()
        snap = model.snapshot(0.7)
        assert snap.available_memory_mb + snap.used_memory_mb == pytest.approx(
            spec.total_memory_mb
        )


class TestContentionSignal:
    def test_statistics_monotone_in_level(self, model):
        low = model.snapshot(0.1)
        high = model.snapshot(0.9)
        assert high.load_avg_1 > low.load_avg_1
        assert high.pct_disk_utilization > low.pct_disk_utilization
        assert high.used_memory_mb > low.used_memory_mb
        assert high.reads_per_sec > low.reads_per_sec

    def test_noise_perturbs_but_preserves_signal(self):
        noisy = StatisticsModel(noise=0.05, seed=2)
        lows = [noisy.snapshot(0.1).load_avg_1 for _ in range(20)]
        highs = [noisy.snapshot(0.9).load_avg_1 for _ in range(20)]
        assert len(set(lows)) > 1  # noise present
        assert np.mean(highs) > np.mean(lows)  # signal survives

    def test_invalid_level_rejected(self, model):
        with pytest.raises(ValueError):
            model.snapshot(-0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            StatisticsModel(noise=-0.1)


class TestVectorExtraction:
    def test_as_vector_order(self, model):
        snap = model.snapshot(0.5)
        vec = snap.as_vector(("load_avg_1", "used_memory_mb"))
        assert vec[0] == pytest.approx(snap.load_avg_1)
        assert vec[1] == pytest.approx(snap.used_memory_mb)

    def test_as_vector_unknown_field(self, model):
        with pytest.raises(AttributeError):
            model.snapshot(0.5).as_vector(("no_such_field",))
