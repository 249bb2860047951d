"""Unit tests for canned experimental sites."""

import pytest

from repro.env.contention import ClusteredContention, ConstantContention, UniformContention
from repro.workload.scenarios import make_environment, make_site


class TestMakeEnvironment:
    def test_static(self):
        env = make_environment("static")
        assert isinstance(env.trace, ConstantContention)
        assert env.level() == 0.0

    def test_uniform(self):
        assert isinstance(make_environment("uniform", seed=1).trace, UniformContention)

    def test_clustered(self):
        assert isinstance(
            make_environment("clustered", seed=1).trace, ClusteredContention
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_environment("chaotic")


class TestMakeSite:
    def test_site_is_fully_wired(self):
        site = make_site("s", environment_kind="uniform", scale=0.01, seed=2)
        assert site.name == "s"
        assert site.database.environment is site.environment
        assert site.load_builder.environment is site.environment
        assert site.monitor.environment is site.environment
        assert len(site.database.catalog.table_names) == 12

    def test_scale_applied(self):
        site = make_site("s", scale=0.01, seed=2)
        assert site.database.catalog.table("R12").cardinality == 2500

    def test_same_seed_reproducible(self):
        a = make_site("a", scale=0.01, seed=5)
        b = make_site("b", scale=0.01, seed=5)
        assert a.database.catalog.table("R1").rows() == b.database.catalog.table(
            "R1"
        ).rows()


class TestScenarioTraces:
    def make_builder(self, seed=3):
        from repro.env.loadbuilder import LoadBuilder

        env = make_environment("uniform", seed=seed)
        return LoadBuilder(env, seed=seed)

    def test_kind_vocabulary(self):
        from repro.workload.scenarios import SCENARIO_KINDS

        assert SCENARIO_KINDS == ("calm", "random_walk", "clustered", "regime_shift")

    def test_unknown_kind_raises(self):
        from repro.workload.scenarios import install_scenario_trace

        with pytest.raises(ValueError, match="unknown scenario kind"):
            install_scenario_trace(self.make_builder(), "storm", 0, 10)

    def test_shift_round_floor(self):
        from repro.workload.scenarios import scenario_shift_round

        assert scenario_shift_round(18) == 6
        assert scenario_shift_round(2) == 1  # never shifts at round 0

    def test_steady_kinds_never_report_shift(self):
        from repro.workload.scenarios import SCENARIO_KINDS, install_scenario_trace

        for kind in SCENARIO_KINDS:
            if kind == "regime_shift":
                continue
            builder = self.make_builder()
            assert install_scenario_trace(builder, kind, 0, 12) is False
            assert install_scenario_trace(builder, kind, 11, 12) is False

    def test_regime_shift_pins_contention_past_boundary(self):
        from repro.workload.scenarios import (
            SCENARIO_SHIFTED_LEVEL,
            install_scenario_trace,
            scenario_shift_round,
        )

        builder = self.make_builder()
        total = 12
        boundary = scenario_shift_round(total)
        assert install_scenario_trace(builder, "regime_shift", boundary - 1, total) is False
        assert isinstance(builder.environment.trace, UniformContention)
        assert install_scenario_trace(builder, "regime_shift", boundary, total) is True
        assert isinstance(builder.environment.trace, ConstantContention)
        assert builder.environment.trace.level_at(0.0) == SCENARIO_SHIFTED_LEVEL

    def test_reinstall_reproduces_the_same_trace(self):
        from repro.workload.scenarios import install_scenario_trace

        a, b = self.make_builder(seed=9), self.make_builder(seed=9)
        install_scenario_trace(a, "random_walk", 0, 10)
        install_scenario_trace(b, "random_walk", 0, 10)
        times = [30.0 * i for i in range(20)]
        assert [a.environment.trace.level_at(t) for t in times] == [
            b.environment.trace.level_at(t) for t in times
        ]
