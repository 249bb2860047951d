"""The pluggable cost-model strategy layer.

The load-bearing guarantee is at the top: building through the default
OLS strategy is byte-identical to the direct ``fit_qualitative`` path
the repo shipped before the strategy refactor.
"""

import numpy as np
import pytest

from repro.core.classification import G1
from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.core.strategy import (
    DEFAULT_STRATEGY,
    MODEL_FORM_KEY,
    STRATEGY_NAMES,
    OLSStrategy,
    OnlineSample,
    RLSStrategy,
    model_form,
    resolve_strategy,
    strategy_for,
)

from .synthetic import stepped_sample


def make_fit(true_states=2, n=120, seed=3):
    X, y, probing = stepped_sample(true_states=true_states, n=n, seed=seed)
    return fit_qualitative(
        X, y, probing, uniform_partition(0.0, 1.0, true_states), ("x",)
    )


def finalize(strategy_name, **kwargs):
    fit = make_fit(**kwargs)
    model = MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma")
    return resolve_strategy(strategy_name).finalize(model, fit), fit


class TestDefaultPathByteIdentity:
    """The OLS default must not move a single byte post-refactor."""

    def test_finalize_is_identity_for_ols(self):
        fit = make_fit()
        raw = MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma")
        finalized = OLSStrategy().finalize(
            MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma"), fit
        )
        assert finalized.to_dict() == raw.to_dict()
        assert MODEL_FORM_KEY not in finalized.metadata

    def test_default_form_name(self):
        model, _ = finalize(DEFAULT_STRATEGY)
        assert model_form(model) == "mlr.ols"
        assert isinstance(strategy_for(model), OLSStrategy)

    def test_builder_explicit_ols_equals_default(self, session_g1_build):
        """An explicit ``strategy="mlr.ols"`` rebuild is the identity:
        the pre-refactor default path and the strategy path agree byte
        for byte on the exported artifact."""
        builder, outcome = session_g1_build
        default = builder.build_from_observations(outcome.observations, G1)
        explicit = builder.build_from_observations(
            outcome.observations, G1, strategy="mlr.ols"
        )
        assert default.model.to_dict() == explicit.model.to_dict()
        assert MODEL_FORM_KEY not in default.model.metadata


class TestResolve:
    def test_known_names(self):
        assert set(STRATEGY_NAMES) == {"mlr.ols", "mlr.rls"}
        for name in STRATEGY_NAMES:
            assert resolve_strategy(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve_strategy("mlr.kalman")


class TestOnlineForms:
    def test_finalize_stamps_metadata(self):
        model, _ = finalize("mlr.rls")
        assert model.metadata[MODEL_FORM_KEY] == "mlr.rls"
        assert isinstance(strategy_for(model), RLSStrategy)

    def test_supports_online_update_flags(self):
        assert not OLSStrategy().supports_online_update
        assert RLSStrategy().supports_online_update

    @pytest.mark.parametrize("name", ["mlr.rls"])
    def test_online_calm_fit_tracks_ols(self, name):
        ols, _ = finalize(DEFAULT_STRATEGY)
        online, _ = finalize(name)
        # Same calm data: the online form lands near the batch solution.
        np.testing.assert_allclose(
            online.coefficients, ols.coefficients, rtol=0.15, atol=0.05
        )

    def test_builder_strategy_override(self, session_g1_build):
        builder, outcome = session_g1_build
        built = builder.build_from_observations(
            outcome.observations, G1, strategy="mlr.rls"
        )
        assert model_form(built.model) == "mlr.rls"


class TestOnlineUpdate:
    def sample(self, model, actual, state=0):
        return OnlineSample(
            values={name: 0.4 for name in model.variable_names},
            state=state,
            actual=actual,
        )

    def test_ols_has_no_updater(self):
        model, _ = finalize(DEFAULT_STRATEGY)
        strategy = strategy_for(model)
        updater = strategy.make_updater(model)
        assert updater is None
        assert strategy.update(model, self.sample(model, 10.0), updater) is None

    def test_rls_update_mutates_in_place(self):
        model, _ = finalize("mlr.rls")
        strategy = strategy_for(model)
        updater = strategy.make_updater(model)
        before = model.coefficients.copy()
        error = strategy.update(model, self.sample(model, 500.0), updater)
        assert error is not None and abs(error) > 0.0
        assert not np.array_equal(model.coefficients, before)

    def test_updates_converge_toward_actual(self):
        model, _ = finalize("mlr.rls")
        strategy = strategy_for(model)
        updater = strategy.make_updater(model)
        errors = [
            abs(strategy.update(model, self.sample(model, 42.0), updater))
            for _ in range(20)
        ]
        assert errors[-1] < errors[0]
        assert errors[-1] < 1.0

    def test_missing_variable_is_a_noop(self):
        model, _ = finalize("mlr.rls")
        strategy = strategy_for(model)
        updater = strategy.make_updater(model)
        before = model.coefficients.copy()
        bad = OnlineSample(values={"nope": 1.0}, state=0, actual=5.0)
        assert strategy.update(model, bad, updater) is None
        np.testing.assert_array_equal(model.coefficients, before)

    def test_out_of_range_state_is_clamped(self):
        model, _ = finalize("mlr.rls")
        strategy = strategy_for(model)
        updater = strategy.make_updater(model)
        assert strategy.update(model, self.sample(model, 42.0, state=99), updater) is not None
