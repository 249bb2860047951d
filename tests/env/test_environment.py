"""Unit tests for Environment, LoadBuilder, and EnvironmentMonitor."""

import pytest

from repro.env.contention import ConstantContention, UniformContention
from repro.env.environment import (
    Environment,
    dynamic_clustered_environment,
    dynamic_uniform_environment,
    static_environment,
)
from repro.env.loadbuilder import LoadBuilder
from repro.env.monitor import EnvironmentMonitor


class TestEnvironment:
    def test_static_environment_is_idle(self):
        env = static_environment()
        assert env.level() == 0.0
        assert env.slowdown() == 1.0

    def test_dynamic_factories_seeded(self):
        a = dynamic_uniform_environment(seed=5)
        b = dynamic_uniform_environment(seed=5)
        a.advance(100)
        b.advance(100)
        assert a.level() == b.level()

    def test_clustered_factory(self):
        env = dynamic_clustered_environment(seed=5)
        assert 0.0 <= env.level() <= 1.0

    def test_advance_moves_time(self):
        env = static_environment()
        env.advance(12.0)
        assert env.now == 12.0

    def test_level_follows_trace(self):
        env = Environment(trace=ConstantContention(0.6))
        assert env.level() == 0.6
        assert env.slowdown() > 1.0

    def test_snapshot_reflects_level(self):
        low = Environment(trace=ConstantContention(0.0)).snapshot()
        high = Environment(trace=ConstantContention(1.0)).snapshot()
        assert high.load_avg_1 > low.load_avg_1


class TestLoadBuilder:
    def test_constant_replaces_trace(self):
        env = static_environment()
        LoadBuilder(env).constant(0.8)
        assert env.level() == 0.8

    def test_uniform_installs_uniform_trace(self):
        env = static_environment()
        LoadBuilder(env, seed=3).uniform(low=0.1, high=0.9)
        assert isinstance(env.trace, UniformContention)

    def test_random_walk_and_clustered(self):
        env = static_environment()
        builder = LoadBuilder(env, seed=3)
        builder.random_walk(start=0.4)
        assert env.level() == 0.4
        builder.clustered()
        assert 0.0 <= env.level() <= 1.0


class TestMonitor:
    def test_statistics_snapshot(self):
        env = Environment(trace=ConstantContention(0.5))
        snap = EnvironmentMonitor(env).statistics()
        assert snap.running_processes > 0

    def test_observe_advances_time(self):
        env = static_environment()
        snaps = EnvironmentMonitor(env).observe(5, interval_seconds=10.0)
        assert len(snaps) == 5
        assert env.now == pytest.approx(40.0)

    def test_observe_validates_args(self):
        env = static_environment()
        with pytest.raises(ValueError):
            EnvironmentMonitor(env).observe(0)
        with pytest.raises(ValueError):
            EnvironmentMonitor(env).observe(2, interval_seconds=-1)


class TestMonitorProcessView:
    def test_top_renders(self):
        env = Environment(trace=ConstantContention(0.5))
        text = EnvironmentMonitor(env).top(n=5)
        assert "PID" in text and "running" in text
