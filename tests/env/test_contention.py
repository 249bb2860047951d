"""Unit tests for contention traces and the slowdown model."""

import numpy as np
import pytest

from repro.env.contention import (
    ClusteredContention,
    ConstantContention,
    ContentionCluster,
    DEFAULT_CLUSTERS,
    PROCESS_BASELINE,
    PROCESS_SPAN,
    RandomWalkContention,
    SlowdownModel,
    UniformContention,
    level_to_processes,
    processes_to_level,
)


class TestConstant:
    def test_level_is_constant(self):
        trace = ConstantContention(0.4)
        assert trace.level_at(0) == trace.level_at(1e6) == 0.4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ConstantContention(1.5)


class TestUniform:
    def test_levels_within_bounds(self):
        trace = UniformContention(seed=1, epoch_seconds=10, low=0.2, high=0.8)
        levels = [trace.level_at(t) for t in np.arange(0, 1000, 10)]
        assert all(0.2 <= lv <= 0.8 for lv in levels)

    def test_constant_within_epoch(self):
        trace = UniformContention(seed=1, epoch_seconds=100)
        assert trace.level_at(5) == trace.level_at(95)

    def test_changes_across_epochs(self):
        trace = UniformContention(seed=1, epoch_seconds=10)
        levels = {trace.level_at(t) for t in range(0, 500, 10)}
        assert len(levels) > 10

    def test_deterministic_given_seed(self):
        a = UniformContention(seed=7, epoch_seconds=10)
        b = UniformContention(seed=7, epoch_seconds=10)
        times = np.linspace(0, 500, 40)
        assert [a.level_at(t) for t in times] == [b.level_at(t) for t in times]

    def test_random_access_consistent_with_sequential(self):
        sequential = UniformContention(seed=3, epoch_seconds=10)
        seq_levels = [sequential.level_at(t) for t in range(0, 100, 10)]
        random_access = UniformContention(seed=3, epoch_seconds=10)
        assert random_access.level_at(95) == seq_levels[9]
        assert random_access.level_at(5) == seq_levels[0]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformContention(low=0.9, high=0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            UniformContention().level_at(-1)


class TestRandomWalk:
    def test_starts_at_start(self):
        trace = RandomWalkContention(seed=1, start=0.3)
        assert trace.level_at(0) == 0.3

    def test_stays_in_unit_interval(self):
        trace = RandomWalkContention(seed=2, epoch_seconds=1, step=0.3)
        levels = [trace.level_at(t) for t in range(500)]
        assert all(0.0 <= lv <= 1.0 for lv in levels)

    def test_moves(self):
        trace = RandomWalkContention(seed=2, epoch_seconds=1)
        assert len({trace.level_at(t) for t in range(50)}) > 5


class TestClustered:
    def test_levels_concentrate_near_cluster_means(self):
        trace = ClusteredContention(seed=4, epoch_seconds=1)
        levels = np.array([trace.level_at(t) for t in range(3000)])
        means = np.array([c.mean for c in DEFAULT_CLUSTERS])
        distances = np.min(np.abs(levels[:, None] - means[None, :]), axis=1)
        # The vast majority of draws should land within 3 sigma of a mean.
        assert np.mean(distances < 0.15) > 0.95

    def test_all_clusters_visited(self):
        trace = ClusteredContention(seed=4, epoch_seconds=1)
        levels = np.array([trace.level_at(t) for t in range(2000)])
        for cluster in DEFAULT_CLUSTERS:
            assert np.any(np.abs(levels - cluster.mean) < 0.1)

    def test_invalid_cluster_rejected(self):
        with pytest.raises(ValueError):
            ContentionCluster(weight=-1, mean=0.5, std=0.1)
        with pytest.raises(ValueError):
            ContentionCluster(weight=1, mean=2.0, std=0.1)

    def test_empty_clusters_rejected(self):
        with pytest.raises(ValueError):
            ClusteredContention(clusters=())


class TestSlowdownModel:
    def test_idle_has_no_slowdown(self):
        assert SlowdownModel().slowdown(0.0) == 1.0

    def test_monotone_in_level(self):
        model = SlowdownModel()
        values = [model.slowdown(lv) for lv in np.linspace(0, 1, 20)]
        assert values == sorted(values)

    def test_convex_shape(self):
        model = SlowdownModel()
        # Second differences of a convex function are non-negative.
        xs = np.linspace(0, 1, 11)
        ys = np.array([model.slowdown(x) for x in xs])
        assert np.all(np.diff(ys, 2) >= -1e-9)

    def test_default_swing_matches_figure1_order(self):
        # Figure 1 shows a ~33x swing; the default model gives ~30x.
        swing = SlowdownModel().slowdown(1.0)
        assert 20 <= swing <= 50

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError):
            SlowdownModel().slowdown(1.2)


class TestProcessMapping:
    def test_roundtrip(self):
        for level in (0.0, 0.25, 0.5, 1.0):
            procs = level_to_processes(level)
            assert processes_to_level(procs) == pytest.approx(level, abs=0.01)

    def test_bounds(self):
        assert level_to_processes(0.0) == PROCESS_BASELINE
        assert level_to_processes(1.0) == PROCESS_BASELINE + PROCESS_SPAN

    def test_out_of_range_processes_rejected(self):
        with pytest.raises(ValueError):
            processes_to_level(PROCESS_BASELINE - 10)
