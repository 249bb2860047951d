"""Unit tests for the versioned cost-model registry."""

import pytest

from repro import obs
from repro.core.builder import BuilderConfig
from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.mdbs.registry import (
    CostModelRegistry,
    CostModelRegistryError,
    ModelProvenance,
    ModelVersion,
    config_fingerprint,
    describe_registry,
)

from ..core.synthetic import stepped_sample


def make_model(label="G1", seed=1):
    X, y, probing = stepped_sample(true_states=2, n=100, seed=seed)
    fit = fit_qualitative(X, y, probing, uniform_partition(0, 1, 2), ("x",))
    return MultiStateCostModel.from_fit(fit, label, "unary", "iupma")


@pytest.fixture
def registry():
    return CostModelRegistry()


class TestPublish:
    def test_versions_number_from_one(self, registry):
        v1 = registry.publish("s1", make_model())
        v2 = registry.publish("s1", make_model(seed=2))
        assert (v1.version, v2.version) == (1, 2)
        assert registry.active_version("s1", "G1").version == 2

    def test_publish_without_activation(self, registry):
        registry.publish("s1", make_model())
        shadow = registry.publish("s1", make_model(seed=2), activate=False)
        assert shadow.version == 2
        assert registry.active_version("s1", "G1").version == 1

    def test_default_provenance_from_model(self, registry):
        model = make_model()
        entry = registry.publish("s1", model)
        assert entry.provenance.algorithm == "iupma"
        assert entry.provenance.sample_size == model.n_observations
        assert entry.provenance.r_squared == pytest.approx(model.r_squared)
        assert entry.provenance.standard_error == pytest.approx(model.standard_error)

    def test_drift_trigger_survives_provenance_round_trip(self, registry):
        model = make_model()
        trigger = "drift[probe_escape] s1/G1 @t=120: 5/8 probes out of range"
        entry = registry.publish(
            "s1", model, ModelProvenance.from_model(model, trigger=trigger)
        )
        assert entry.provenance.trigger == trigger
        payload = entry.provenance.to_dict()
        assert payload["trigger"] == trigger
        assert ModelProvenance.from_dict(payload) == entry.provenance
        # Ordinary §2 maintenance carries no trigger — and a payload
        # written before the field existed still round-trips.
        plain = ModelProvenance.from_model(model)
        assert plain.trigger is None
        legacy = plain.to_dict()
        legacy.pop("trigger", None)
        assert ModelProvenance.from_dict(legacy).trigger is None

    def test_keys_are_site_class_pairs(self, registry):
        registry.publish("s1", make_model("G1"))
        registry.publish("s1", make_model("G3"))
        registry.publish("s2", make_model("G1"))
        assert registry.keys() == [("s1", "G1"), ("s1", "G3"), ("s2", "G1")]
        assert len(registry) == 3

    def test_missing_model_raises(self, registry):
        with pytest.raises(CostModelRegistryError):
            registry.active_model("s1", "G1")
        assert not registry.has_model("s1", "G1")


class TestActivateRollback:
    def test_rollback_restores_previously_active(self, registry):
        registry.publish("s1", make_model(seed=1))
        registry.publish("s1", make_model(seed=2))
        restored = registry.rollback("s1", "G1")
        assert restored.version == 1
        assert registry.active_version("s1", "G1").version == 1

    def test_rollback_follows_activation_history(self, registry):
        registry.publish("s1", make_model(seed=1))
        registry.publish("s1", make_model(seed=2))
        registry.publish("s1", make_model(seed=3))
        registry.activate("s1", "G1", 1)
        assert registry.rollback("s1", "G1").version == 3
        assert registry.rollback("s1", "G1").version == 2

    def test_rollback_without_history_errors_at_v1(self, registry):
        registry.publish("s1", make_model())
        with pytest.raises(CostModelRegistryError):
            registry.rollback("s1", "G1")

    def test_activate_unknown_version_rejected(self, registry):
        registry.publish("s1", make_model())
        with pytest.raises(CostModelRegistryError):
            registry.activate("s1", "G1", 7)

    def test_reactivating_same_version_does_not_pollute_history(self, registry):
        registry.publish("s1", make_model(seed=1))
        registry.publish("s1", make_model(seed=2))
        registry.activate("s1", "G1", 2)  # no-op re-activation
        assert registry.rollback("s1", "G1").version == 1


class TestPersistence:
    def test_export_import_round_trip(self, registry):
        registry.publish(
            "s1",
            make_model(),
            ModelProvenance(
                derived_at=42.0,
                algorithm="icma",
                sample_size=77,
                r_squared=0.98,
                standard_error=0.02,
                config_hash="deadbeef",
            ),
        )
        registry.publish("s1", make_model(seed=2))
        registry.activate("s1", "G1", 1)

        fresh = CostModelRegistry()
        assert fresh.import_payload(registry.export()) == 1
        assert fresh.active_version("s1", "G1").version == 1
        history = fresh.history("s1", "G1")
        assert [v.version for v in history] == [1, 2]
        assert history[0].provenance == ModelProvenance(
            derived_at=42.0,
            algorithm="icma",
            sample_size=77,
            r_squared=0.98,
            standard_error=0.02,
            config_hash="deadbeef",
        )

    def test_export_is_json_compatible(self, registry):
        import json

        registry.publish("s1", make_model())
        json.dumps(registry.export())

    def test_imported_payload_without_active_serves_latest(self, registry):
        registry.publish("s1", make_model())
        payload = registry.export()
        payload["s1/G1"]["active"] = None
        fresh = CostModelRegistry()
        fresh.import_payload(payload)
        assert fresh.active_version("s1", "G1").version == 1


class TestObservability:
    def test_publishes_are_counted_and_sized_on_the_registry(self, registry):
        reg = obs.MetricsRegistry()
        previous = obs.set_registry(reg)
        try:
            registry.publish("s1", make_model("G1"))
            registry.publish("s1", make_model("G1", seed=2))
            registry.publish("s1", make_model("G3"))
        finally:
            obs.set_registry(previous)
        # The dashboard's one registry metric; its size is the registry's.
        assert reg.names() == ["mdbs.registry.published"]
        assert reg.counter_value("mdbs.registry.published") == 3
        assert registry.keys() == [("s1", "G1"), ("s1", "G3")]
        assert len(registry) == 3


class TestMisc:
    def test_config_fingerprint_stable_and_sensitive(self):
        a = BuilderConfig()
        b = BuilderConfig()
        assert config_fingerprint(a) == config_fingerprint(b)
        b.sizing_states = 9
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_iteration_and_describe(self, registry):
        registry.publish("s1", make_model("G1"))
        registry.publish("s2", make_model("G3", seed=2))
        entries = list(registry)
        assert all(isinstance(e, ModelVersion) for e in entries)
        listing = describe_registry(registry)
        assert "s1/G1" in listing and "s2/G3" in listing

