"""Unit tests for probing queries and eq. (2) estimation."""

import dataclasses

import numpy as np
import pytest

from repro.core.probing import (
    ProbingCostEstimator,
    ProbingQuery,
    default_probing_query,
)
from repro.engine.database import LocalDatabase
from repro.engine.query import SelectQuery
from repro.env.contention import ConstantContention
from repro.env.environment import Environment
from repro.env.loadbuilder import LoadBuilder
from repro.env.monitor import EnvironmentMonitor
from repro.mlr.linalg import add_intercept
from repro.mlr.ols import fit_ols


class TestProbingQuery:
    def test_observe_returns_elapsed(self, dynamic_database):
        probe = ProbingQuery(dynamic_database, SelectQuery("t1", ("a",)))
        assert probe.observe() > 0

    def test_cost_tracks_contention(self, small_database):
        probe = ProbingQuery(small_database, SelectQuery("t1", ("a",)))
        loads = LoadBuilder(small_database.environment)
        loads.constant(0.0)
        idle_cost = probe.observe()
        loads.constant(0.9)
        loaded_cost = probe.observe()
        assert loaded_cost > 3 * idle_cost

    def test_accepts_sql_text(self, small_database):
        probe = ProbingQuery(small_database, "select a from t1 where a < 100")
        assert probe.observe() > 0

    def test_describe_names_site_and_query(self, small_database):
        probe = ProbingQuery(small_database, SelectQuery("t1", ("a",)))
        assert "unit_db" in probe.describe()
        assert "t1" in probe.describe()


class TestDefaultProbe:
    def test_targets_smallest_table(self, small_database):
        probe = default_probing_query(small_database)
        assert probe.query.table == "t2"  # 400 rows < 600

    def test_runs(self, small_database):
        assert default_probing_query(small_database).observe() > 0

    def test_empty_database_rejected(self):
        db = LocalDatabase("empty")
        with pytest.raises(ValueError):
            default_probing_query(db)


class TestProbingCostEstimator:
    def calibrated(self, database, samples=50):
        probe = default_probing_query(database)
        monitor = EnvironmentMonitor(database.environment)
        estimator = ProbingCostEstimator()
        estimator.calibrate(probe, monitor, samples=samples, interval_seconds=45.0)
        return estimator, probe, monitor

    def test_calibration_fits_contention_signal(self, dynamic_database):
        estimator, _, _ = self.calibrated(dynamic_database)
        assert estimator.is_calibrated
        assert estimator.fit.r_squared > 0.7

    def test_significant_parameters_subset_of_candidates(self, dynamic_database):
        estimator, _, _ = self.calibrated(dynamic_database)
        assert set(estimator.selected_parameters) <= set(estimator.parameters)
        assert len(estimator.selected_parameters) >= 1

    def test_estimates_track_observations(self, dynamic_database):
        estimator, probe, monitor = self.calibrated(dynamic_database, samples=60)
        errors = []
        for _ in range(10):
            estimated = estimator.estimate(monitor.statistics())
            observed = probe.observe()
            errors.append(abs(estimated - observed) / max(observed, 1e-9))
            dynamic_database.environment.advance(60.0)
        assert sum(errors) / len(errors) < 0.8

    def test_estimate_monotone_in_contention(self, small_database):
        # Calibrate under a sweep of constant loads, then compare two
        # snapshots at known levels.
        estimator, probe, monitor = None, None, None
        env = small_database.environment
        loads = LoadBuilder(env)
        probe = default_probing_query(small_database)
        monitor = EnvironmentMonitor(env)
        snapshots, costs = [], []
        for level in [i / 19 for i in range(20)]:
            loads.constant(level)
            snapshots.append(monitor.statistics())
            costs.append(probe.observe())
        estimator = ProbingCostEstimator()
        estimator.fit_pairs(snapshots, costs)
        loads.constant(0.1)
        low = estimator.estimate(monitor.statistics())
        loads.constant(0.9)
        high = estimator.estimate(monitor.statistics())
        assert high > low

    def test_screen_drops_the_noise_parameter_and_keeps_the_signal(self):
        # Hand-made calibration pairs: the probe's cost follows load and
        # used memory, and disk utilisation is pure noise.
        rng = np.random.default_rng(3)
        load = rng.uniform(0.0, 8.0, 60)
        disk = rng.uniform(0.0, 100.0, 60)
        memory = rng.uniform(200.0, 900.0, 60)
        costs = 0.4 + 0.75 * load + 0.002 * memory + rng.normal(0.0, 0.05, 60)
        base = Environment(trace=ConstantContention(0.5)).snapshot()
        snapshots = [
            dataclasses.replace(
                base, load_avg_1=lo, pct_disk_utilization=di, used_memory_mb=me
            )
            for lo, di, me in zip(load, disk, memory)
        ]
        estimator = ProbingCostEstimator()
        full = fit_ols(add_intercept(np.column_stack([load, disk, memory])), costs)
        assert full.t_pvalues[2] > estimator.alpha > max(full.t_pvalues[[1, 3]])

        result = estimator.fit_pairs(snapshots, costs)
        assert estimator.selected_parameters == ("load_avg_1", "used_memory_mb")
        assert result.term_names == ("b0", "load_avg_1", "used_memory_mb")
        kept = fit_ols(add_intercept(np.column_stack([load, memory])), costs)
        assert result.coefficients.tobytes() == kept.coefficients.tobytes()
        assert result.coefficients == pytest.approx([0.4, 0.75, 0.002], rel=0.05)

    def test_uncalibrated_estimate_rejected(self, small_database):
        estimator = ProbingCostEstimator()
        env = Environment(trace=ConstantContention(0.5))
        with pytest.raises(RuntimeError):
            estimator.estimate(env.snapshot())
        with pytest.raises(RuntimeError):
            estimator.selected_parameters

    def test_too_few_calibration_samples_rejected(self, dynamic_database):
        probe = default_probing_query(dynamic_database)
        monitor = EnvironmentMonitor(dynamic_database.environment)
        with pytest.raises(ValueError):
            ProbingCostEstimator().calibrate(probe, monitor, samples=2)

    def test_mismatched_pairs_rejected(self, small_database):
        estimator = ProbingCostEstimator()
        snap = small_database.environment.snapshot()
        with pytest.raises(ValueError):
            estimator.fit_pairs([snap], [1.0, 2.0])
