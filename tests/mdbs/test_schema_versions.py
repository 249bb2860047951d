"""Cost-model export schema versioning: the v3 round trip and rejection.

Schema v3 carries the pluggable model-form provenance (``model_form``
and ``online_updates``).  Nothing writes the older v2 or flat
v1 formats, so the importer reads v3 alone and rejects every other
payload, those two included, with the same error.

``golden/models_v3_parent.json`` is ``populated_catalog().export_models()``
as written by the last commit whose models carried a ``coef_covariance``
(a v3 payload still; the key was dropped without a schema bump).  This
code must read it and keep every other field.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.core.strategy import DEFAULT_STRATEGY, RLSStrategy
from repro.mdbs.catalog import MODEL_SCHEMA_VERSION, GlobalCatalog, GlobalCatalogError

from ..core.synthetic import stepped_sample
from ..core.test_derivation_digest import LSTSQ_CANARY, _lstsq_canary

PARENT_PAYLOAD = Path(__file__).parent / "golden" / "models_v3_parent.json"


def make_model(label="G1", strategy=None, seed=1):
    X, y, probing = stepped_sample(true_states=2, n=100, seed=seed)
    fit = fit_qualitative(X, y, probing, uniform_partition(0, 1, 2), ("x",))
    model = MultiStateCostModel.from_fit(fit, label, "unary", "iupma")
    if strategy is not None:
        model = strategy.finalize(model, fit)
    return model


def populated_catalog():
    catalog = GlobalCatalog()
    catalog.register_site("s1")
    catalog.register_site("s2")
    catalog.registry.publish("s1", make_model("G1"))
    catalog.registry.publish("s1", make_model("G3", seed=4))
    catalog.registry.publish("s2", make_model("G1", strategy=RLSStrategy(), seed=2))
    return catalog


class TestV3RoundTrip:
    def test_constants(self):
        assert MODEL_SCHEMA_VERSION == 3

    def test_export_import_reexport_is_identical(self):
        catalog = populated_catalog()
        first = catalog.export_models()
        assert first["schema_version"] == 3

        fresh = GlobalCatalog()
        assert fresh.import_models(first) == 3
        second = fresh.export_models()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_form_provenance_round_trips(self):
        catalog = populated_catalog()
        version = catalog.registry.active_version("s2", "G1")
        catalog.registry.record_online_update("s2", "G1", version.version)
        catalog.registry.record_online_update("s2", "G1", version.version)

        fresh = GlobalCatalog()
        fresh.import_models(json.loads(json.dumps(catalog.export_models())))
        restored = fresh.registry.active_version("s2", "G1").provenance
        assert restored.model_form == "mlr.rls"
        assert restored.online_updates == 2
        # The OLS models carry the default form without metadata noise.
        assert fresh.registry.active_version("s1", "G1").provenance.model_form == (
            DEFAULT_STRATEGY
        )


class TestRejection:
    @pytest.mark.parametrize("version", [0, 1, 2, 4, 99, "3"])
    def test_unknown_schema_version_rejected(self, version):
        fresh = GlobalCatalog()
        with pytest.raises(GlobalCatalogError, match="schema_version"):
            fresh.import_models({"schema_version": version, "models": {}})

    def test_flat_v1_payload_rejected(self):
        """The pre-versioning ``{"site/label": model_dict}`` format."""
        fresh = GlobalCatalog()
        with pytest.raises(GlobalCatalogError, match="schema_version None"):
            fresh.import_models({"s1/G1": make_model("G1").to_dict()})
        assert fresh.sites == ()


class TestPayloadWithCovariance:
    """The v3 payloads written before the covariance was dropped."""

    @staticmethod
    def parent_payload():
        return json.loads(PARENT_PAYLOAD.read_text())

    @staticmethod
    def without_covariance(payload):
        for record in payload["models"].values():
            for entry in record["versions"]:
                del entry["model"]["coef_covariance"]
        return payload

    def test_imports_with_every_other_field_kept(self):
        fresh = GlobalCatalog()
        assert fresh.import_models(self.parent_payload()) == 3
        assert fresh.export_models() == self.without_covariance(self.parent_payload())

    def test_predictions_and_provenance_equal_todays_build(self):
        if _lstsq_canary() != LSTSQ_CANARY:
            pytest.skip("this platform's LAPACK rounds lstsq differently from the file's")
        fresh = GlobalCatalog()
        fresh.import_models(self.parent_payload())
        today = populated_catalog().registry
        assert fresh.registry.keys() == today.keys()
        for site, label in today.keys():
            restored = fresh.registry.active_version(site, label)
            built = today.active_version(site, label)
            assert restored.provenance == built.provenance
            for x in np.linspace(0.0, 20.0, 9):
                for probing in np.linspace(0.0, 1.0, 7):
                    assert restored.model.predict({"x": x}, probing) == (
                        built.model.predict({"x": x}, probing)
                    )

    def test_todays_export_has_no_covariance(self):
        assert "coef_covariance" not in json.dumps(populated_catalog().export_models())
