"""Coordinator behaviour: config shapes, fan-out, worker-count invariance."""

import pytest

from repro.experiments.config import tiny
from repro.loadgen import coordinator as coordinator_module
from repro.loadgen import (
    Coordinator,
    FaultEvent,
    FaultSchedule,
    LoadGenConfig,
    default_loadgen_config,
)

GAP = 600.0


def micro_loadgen(config, **overrides):
    defaults = dict(
        experiment=config,
        shards=3,
        rounds=6,
        gap_seconds=GAP,
        faults=FaultSchedule(
            (
                FaultEvent(0, "outage", 2 * GAP, 2 * GAP, level=0.98),
                FaultEvent(1, "slowdown", 2 * GAP, 2 * GAP, level=0.9),
            )
        ),
    )
    defaults.update(overrides)
    return LoadGenConfig(**defaults)


class TestLoadGenConfig:
    def test_validation(self, micro_config):
        with pytest.raises(ValueError, match="shards"):
            LoadGenConfig(experiment=micro_config, shards=0, rounds=4)
        with pytest.raises(ValueError, match="rounds"):
            LoadGenConfig(experiment=micro_config, shards=2, rounds=0)
        with pytest.raises(ValueError, match="scenario_mix"):
            LoadGenConfig(
                experiment=micro_config, shards=2, rounds=4, scenario_mix=()
            )

    def test_scenario_cycling(self, micro_config):
        config = LoadGenConfig(
            experiment=micro_config,
            shards=5,
            rounds=4,
            scenario_mix=("calm", "regime_shift"),
        )
        assert [config.scenario_for(i) for i in range(5)] == [
            "calm",
            "regime_shift",
            "calm",
            "regime_shift",
            "calm",
        ]

    def test_tasks_route_faults_per_shard(self, micro_config):
        config = micro_loadgen(micro_config)
        tasks = config.tasks()
        assert len(tasks) == 3
        assert [e.kind for e in tasks[0].faults] == ["outage"]
        assert [e.kind for e in tasks[1].faults] == ["slowdown"]
        assert tasks[2].faults == ()
        assert all(t.rounds == 6 for t in tasks)

    def test_default_config_uses_experiment_shape(self):
        config = default_loadgen_config(tiny(), fault_plan="mixed")
        assert config.shards == tiny().loadgen_shards
        assert config.rounds == tiny().loadgen_rounds
        assert len(config.faults) == 2
        none = default_loadgen_config(tiny(), fault_plan="none")
        assert len(none.faults) == 0


class TestCoordinator:
    def test_rejects_bad_worker_count(self, micro_config, trained_payload):
        coordinator = Coordinator(
            micro_loadgen(micro_config), payload=trained_payload
        )
        with pytest.raises(ValueError, match="workers"):
            coordinator.run(workers=0)

    def test_train_is_idempotent(self, micro_config, trained_payload):
        coordinator = Coordinator(
            micro_loadgen(micro_config), payload=trained_payload
        )
        assert coordinator.train() is trained_payload
        assert coordinator.train() is trained_payload

    @pytest.mark.slow
    def test_aggregate_invariant_across_worker_counts(
        self, micro_config, trained_payload
    ):
        """THE determinism contract: workers only change concurrency."""
        config = micro_loadgen(micro_config)
        coordinator = Coordinator(config, payload=trained_payload)
        serial = coordinator.run(workers=1)
        pooled = coordinator.run(workers=2)
        assert serial.deterministic_payload() == pooled.deterministic_payload()
        assert (serial.workers, serial.pool_size) == (1, 1)
        assert pooled.workers == 2
        assert pooled.pool_size == min(2, coordinator_module.available_cpus())

        aggregate = serial.aggregate()
        expected = config.shards * config.rounds * config.queries_per_round
        assert aggregate["requests"] == expected
        assert aggregate["completed"] == expected
        assert aggregate["failed"] == 0
        assert aggregate["shards"] == config.shards
        assert len(aggregate["per_shard"]) == config.shards
        # The scripted faults landed: both disturbed shards measured.
        assert "0" in aggregate["drift"]["loops"]

    @pytest.mark.slow
    def test_wall_stats_are_separate_from_the_aggregate(
        self, micro_config, trained_payload
    ):
        config = micro_loadgen(micro_config, shards=2, rounds=3, faults=FaultSchedule())
        report = Coordinator(config, payload=trained_payload).run(workers=1)
        stats = report.wall_stats()
        assert stats["workers"] == 1
        assert stats["pool_size"] == 1
        assert stats["cpu_count"] == coordinator_module.available_cpus() >= 1
        assert stats["wall_seconds"] > 0
        assert stats["qps"] > 0
        assert stats["latency_wall_seconds"]["count"] == config.shards * 9
        assert "wall_seconds" not in report.deterministic_payload()
        assert "pool_size" not in report.deterministic_payload()
        assert "cpu_count" not in report.deterministic_payload()

    @pytest.mark.slow
    def test_pool_never_outgrows_the_cpus(
        self, micro_config, trained_payload, monkeypatch
    ):
        """Eight workers asked for on a one-CPU box: no pool at all, the
        request still on record, the simulated side untouched."""
        config = micro_loadgen(micro_config, shards=2, rounds=3, faults=FaultSchedule())
        coordinator = Coordinator(config, payload=trained_payload)
        serial = coordinator.run(workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool on a one-CPU machine")

        monkeypatch.setattr(coordinator_module, "available_cpus", lambda: 1)
        monkeypatch.setattr(coordinator_module, "ProcessPoolExecutor", no_pool)
        capped = coordinator.run(workers=8)
        stats = capped.wall_stats()
        assert (stats["workers"], stats["cpu_count"], stats["pool_size"]) == (8, 1, 1)
        assert capped.deterministic_payload() == serial.deterministic_payload()
