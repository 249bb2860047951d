"""Cost-model export schema versioning: the v3 round trip and rejection.

Schema v3 carries the pluggable model-form provenance (``model_form``
and ``online_updates``).  Nothing writes the older v2 or flat
v1 formats, so the importer reads v3 alone and rejects every other
payload, those two included, with the same error.
"""

import json

import pytest

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.core.strategy import DEFAULT_STRATEGY, RLSStrategy
from repro.mdbs.catalog import MODEL_SCHEMA_VERSION, GlobalCatalog, GlobalCatalogError

from ..core.synthetic import stepped_sample

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
