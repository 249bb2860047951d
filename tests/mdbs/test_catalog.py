"""Unit tests for the global catalog."""

import json

import pytest

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.mdbs.catalog import GlobalCatalog, GlobalCatalogError, TableFacts
from repro.mdbs.registry import CostModelRegistryError

from ..core.synthetic import stepped_sample


def make_model(label="G1"):
    X, y, probing = stepped_sample(true_states=2, n=100, seed=1)
    fit = fit_qualitative(X, y, probing, uniform_partition(0, 1, 2), ("x",))
    return MultiStateCostModel.from_fit(fit, label, "unary", "iupma")


def make_facts(site="s1", name="t1"):
    return TableFacts(
        site=site,
        name=name,
        cardinality=100,
        tuple_length=24,
        column_widths={"a": 8, "b": 8, "c": 8},
        column_stats={"a": (0, 99, 50)},
        indexed_columns={"a": "nonclustered"},
    )


@pytest.fixture
def catalog():
    cat = GlobalCatalog()
    cat.register_site("s1")
    cat.register_site("s2")
    return cat


class TestSites:
    def test_registration_idempotent(self, catalog):
        catalog.register_site("s1")
        assert catalog.sites == ("s1", "s2")

    def test_unknown_site_rejected(self, catalog):
        with pytest.raises(GlobalCatalogError):
            catalog.register_table(make_facts(site="s9"))


class TestTables:
    def test_register_and_lookup(self, catalog):
        catalog.register_table(make_facts())
        assert catalog.table("s1", "t1").cardinality == 100

    def test_missing_table_rejected(self, catalog):
        with pytest.raises(GlobalCatalogError):
            catalog.table("s1", "nope")


class TestCostModels:
    def test_store_and_fetch(self, catalog):
        model = make_model()
        catalog.registry.publish("s1", model)
        assert catalog.registry.active_model("s1", "G1") is model
        assert catalog.registry.has_model("s1", "G1")
        assert not catalog.registry.has_model("s2", "G1")

    def test_missing_model_rejected(self, catalog):
        # The registry is the one model store: a missing model is its
        # error, not the catalog's (which covers sites and tables).
        with pytest.raises(CostModelRegistryError):
            catalog.registry.active_model("s1", "G1")

    def test_models_at_site(self, catalog):
        catalog.registry.publish("s1", make_model("G1"))
        catalog.registry.publish("s1", make_model("G3"))
        assert [m.class_label for m in catalog.registry.active_models_at("s1")] == ["G1", "G3"]

    def test_export_import_round_trip(self, catalog):
        model = make_model()
        catalog.registry.publish("s1", model)
        payload = catalog.export_models()
        fresh = GlobalCatalog()
        fresh.import_models(payload)
        restored = fresh.registry.active_model("s1", "G1")
        assert restored.predict({"x": 10.0}, 0.5) == pytest.approx(
            model.predict({"x": 10.0}, 0.5)
        )

    def test_export_is_json_compatible(self, catalog):
        catalog.registry.publish("s1", make_model())
        json.dumps(catalog.export_models())


class TestImportIsAllOrNothing:
    """Every record is read before any is installed: a bad one rejects the
    whole payload with an error naming its ``site/class`` and field."""

    @staticmethod
    def four_records():
        source = GlobalCatalog()
        for site in ("s1", "s2"):
            for label in ("G1", "G3"):
                source.registry.publish(site, make_model(label))
        return source.export_models()

    @staticmethod
    def assert_rejected(payload, match):
        target = GlobalCatalog()
        target.register_site("s0")
        target.registry.publish("s0", make_model())
        events = []
        target.registry.subscribe(lambda *event: events.append(event))
        before = (target.sites, target.export_models())
        with pytest.raises(GlobalCatalogError, match=match):
            target.import_models(payload)
        assert (target.sites, target.export_models()) == before
        assert events == []

    def test_missing_field(self):
        payload = self.four_records()
        del payload["models"]["s2/G3"]["versions"][0]["model"]["coefficients"]
        self.assert_rejected(payload, "s2/G3: missing field 'coefficients'")

    def test_non_finite_coefficient(self):
        payload = self.four_records()
        payload["models"]["s1/G3"]["versions"][0]["model"]["coefficients"][1] = float("nan")
        self.assert_rejected(payload, "s1/G3: version 1 has non-finite 'coefficients'")

    def test_active_pointer_to_no_stored_version(self):
        payload = self.four_records()
        payload["models"]["s2/G1"]["active"] = 2
        self.assert_rejected(payload, "s2/G1: 'active' names no stored version 2")


def save(catalog, path):
    path.write_text(json.dumps(catalog.export_models()))


def load(path):
    fresh = GlobalCatalog()
    return fresh, fresh.import_models(json.loads(path.read_text()))


class TestFilePersistence:
    """The export payload through a JSON file, as a deployment keeps its
    derived models (the catalog reads and writes payloads, not files)."""

    def test_save_load_round_trip(self, catalog, tmp_path):
        model = make_model()
        catalog.registry.publish("s1", model)
        path = tmp_path / "models.json"
        save(catalog, path)

        fresh, loaded = load(path)
        assert loaded == 1
        restored = fresh.registry.active_model("s1", "G1")
        assert restored.predict({"x": 4.0}, 0.3) == pytest.approx(
            model.predict({"x": 4.0}, 0.3)
        )

    def test_saved_file_is_readable_json(self, catalog, tmp_path):
        catalog.registry.publish("s2", make_model("G3"))
        path = tmp_path / "models.json"
        save(catalog, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 3
        assert "s2/G3" in payload["models"]

    def test_unknown_schema_version_rejected(self, catalog, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 99, "models": {}}))
        with pytest.raises(GlobalCatalogError, match="schema_version"):
            load(path)

    def test_versions_round_trip_with_provenance(self, catalog, tmp_path):
        from repro.mdbs.registry import ModelProvenance

        v1 = catalog.registry.publish(
            "s1",
            make_model("G1"),
            ModelProvenance(
                derived_at=120.0,
                algorithm="iupma",
                sample_size=100,
                r_squared=0.99,
                standard_error=0.01,
                config_hash="abc123",
            ),
        )
        v2 = catalog.registry.publish("s1", make_model("G1"))
        assert (v1.version, v2.version) == (1, 2)
        path = tmp_path / "versions.json"
        save(catalog, path)

        fresh, loaded = load(path)
        assert loaded == 1
        history = fresh.registry.history("s1", "G1")
        assert [v.version for v in history] == [1, 2]
        assert history[0].provenance.derived_at == 120.0
        assert history[0].provenance.config_hash == "abc123"
        assert history[0].provenance.sample_size == 100
        # The active pointer round-trips: v2 is served.
        assert fresh.registry.active_version("s1", "G1").version == 2
        # Rollback after a reload still finds the earlier version.
        fresh.registry.rollback("s1", "G1")
        assert fresh.registry.active_version("s1", "G1").version == 1
