"""Unit and property tests for the estimate-quality criteria (§5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.core.validation import (
    ACCEPTABLE_FACTOR,
    GOOD_FACTOR,
    VERY_GOOD_RELATIVE_ERROR,
    is_acceptable,
    is_good,
    is_very_good,
    relative_error,
    validate_model,
)
from repro.core.variables import Sample

from .synthetic import stepped_sample


class TestCriteria:
    def test_very_good_boundary(self):
        assert is_very_good(1.29, 1.0)
        assert not is_very_good(1.31, 1.0)
        assert is_very_good(0.71, 1.0)

    def test_good_is_factor_two(self):
        assert is_good(2.0, 1.0)
        assert is_good(0.5, 1.0)
        assert not is_good(2.01, 1.0)
        assert not is_good(0.49, 1.0)

    def test_acceptable_is_order_of_magnitude(self):
        # The paper's own example: 2 minutes vs 4 minutes is good;
        # 2 minutes vs 3 hours is not acceptable.
        assert is_good(4 * 60, 2 * 60)
        assert not is_acceptable(3 * 3600, 2 * 60)
        assert is_acceptable(9.9, 1.0)

    def test_nonpositive_estimate_of_positive_cost_is_bad(self):
        assert not is_good(-1.0, 5.0)
        assert not is_acceptable(0.0, 5.0)

    def test_relative_error_zero_observed(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")

    def test_constants_match_paper(self):
        assert VERY_GOOD_RELATIVE_ERROR == 0.30
        assert GOOD_FACTOR == 2.0
        assert ACCEPTABLE_FACTOR == 10.0

    @settings(max_examples=100, deadline=None)
    @given(
        estimated=st.floats(0.001, 1e6),
        observed=st.floats(0.001, 1e6),
    )
    def test_property_criteria_are_nested(self, estimated, observed):
        """very good => good => acceptable, always."""
        if is_very_good(estimated, observed):
            assert is_good(estimated, observed)
        if is_good(estimated, observed):
            assert is_acceptable(estimated, observed)

    @settings(max_examples=50, deadline=None)
    @given(est=st.floats(0.001, 1e6), obs=st.floats(0.001, 1e6))
    def test_property_good_is_symmetric(self, est, obs):
        assert is_good(est, obs) == is_good(obs, est)


class TestValidateModel:
    @pytest.fixture
    def model(self):
        X, y, probing = stepped_sample(true_states=2, n=300, noise=0.01, seed=2)
        fit = fit_qualitative(X, y, probing, uniform_partition(0, 1, 2), ("x",))
        return MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma")

    def make_sample(self, *rows):
        """A hand-made test sample of (x, probing cost, cost) rows."""
        x, probing, cost = zip(*rows) if rows else ((), (), ())
        return Sample(cost=cost, probing_cost=probing, values={"x": x})

    def test_accurate_model_scores_high(self, model):
        # Ground truth: state0 y=1+0.5x, state1 y=3+x.
        observations = self.make_sample(
            (10.0, 0.2, 6.0),
            (20.0, 0.2, 11.0),
            (10.0, 0.8, 13.0),
            (20.0, 0.8, 23.0),
        )
        report = validate_model(model, observations)
        assert report.pct_very_good == 100.0
        assert report.pct_good == 100.0
        assert report.n_queries == 4

    def test_wrong_state_estimates_score_low(self, model):
        # Costs from the loaded state, probes claiming the idle state.
        observations = self.make_sample(*[(100.0, 0.1, 103.0)] * 4)
        report = validate_model(model, observations)
        assert report.pct_very_good < 100.0

    def test_average_cost_reported(self, model):
        observations = self.make_sample((10.0, 0.2, 4.0), (10.0, 0.2, 8.0))
        report = validate_model(model, observations)
        assert report.average_observed_cost == pytest.approx(6.0)

    def test_training_stats_carried(self, model):
        observations = self.make_sample((10.0, 0.2, 6.0))
        report = validate_model(model, observations)
        assert report.r_squared == model.r_squared
        assert report.standard_error == model.standard_error
        assert report.f_significant

    def test_row_is_flat_dict(self, model):
        report = validate_model(model, self.make_sample((10.0, 0.2, 6.0)))
        row = report.row()
        assert set(row) >= {"R2", "SEE", "very_good_pct", "good_pct"}

    def test_empty_test_set_rejected(self, model):
        with pytest.raises(ValueError):
            validate_model(model, self.make_sample())
