"""Unit tests for prediction intervals."""

import numpy as np
import pytest

from repro.mlr.intervals import interval_from_covariance
from repro.mlr.linalg import add_intercept
from repro.mlr.ols import fit_ols


def make_fit(n=100, noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = 1.0 + 2.0 * x + rng.normal(0, noise, n)
    X = add_intercept(x.reshape(-1, 1))
    return fit_ols(X, y), X, x, y


def prediction_interval(result, rows, confidence=0.95):
    """The interval of a fit, from the parts a shipped model stores."""
    return interval_from_covariance(
        result.coefficients,
        result.coef_covariance,
        result.standard_error,
        result.degrees_of_freedom,
        rows,
        confidence,
    )


class TestPredictionInterval:
    def test_interval_brackets_point(self):
        result, X, *_ = make_fit()
        point, lower, upper = prediction_interval(result, X[:5])
        assert np.all(lower < point)
        assert np.all(point < upper)

    def test_coverage_near_nominal(self):
        # Fit on one sample, check coverage of fresh draws from the same
        # process: ~95% of new observations should land in the interval.
        result, _, _, _ = make_fit(n=200, noise=1.0, seed=1)
        rng = np.random.default_rng(2)
        x_new = rng.uniform(0, 10, 2000)
        y_new = 1.0 + 2.0 * x_new + rng.normal(0, 1.0, 2000)
        rows = add_intercept(x_new.reshape(-1, 1))
        _, lower, upper = prediction_interval(result, rows, confidence=0.95)
        coverage = np.mean((y_new >= lower) & (y_new <= upper))
        assert 0.90 <= coverage <= 0.99

    def test_higher_confidence_widens(self):
        result, X, *_ = make_fit()
        _, lo90, hi90 = prediction_interval(result, X[:3], confidence=0.90)
        _, lo99, hi99 = prediction_interval(result, X[:3], confidence=0.99)
        assert np.all(lo99 < lo90)
        assert np.all(hi99 > hi90)

    def test_extrapolation_widens_interval(self):
        result, _, *_ = make_fit()
        near = add_intercept(np.array([[5.0]]))
        far = add_intercept(np.array([[50.0]]))
        _, lo_n, hi_n = prediction_interval(result, near)
        _, lo_f, hi_f = prediction_interval(result, far)
        assert (hi_f - lo_f) > (hi_n - lo_n)

    def test_invalid_confidence_rejected(self):
        result, X, *_ = make_fit()
        with pytest.raises(ValueError):
            prediction_interval(result, X[:1], confidence=1.0)

    def test_column_mismatch_rejected(self):
        result, _, *_ = make_fit()
        with pytest.raises(ValueError):
            prediction_interval(result, np.ones((1, 5)))


class TestModelIntegration:
    def test_cost_model_prediction_interval(self, session_g1_build):
        _, outcome = session_g1_build
        model = outcome.model
        obs = outcome.observations[0]
        point, lower, upper = model.predict_with_interval(
            obs.values, obs.probing_cost
        )
        assert lower < point < upper
        assert point == pytest.approx(model.predict(obs.values, obs.probing_cost))

    def test_interval_survives_serialization(self, session_g1_build):
        from repro.core.model import MultiStateCostModel

        _, outcome = session_g1_build
        clone = MultiStateCostModel.from_dict(outcome.model.to_dict())
        obs = outcome.observations[0]
        original = outcome.model.predict_with_interval(obs.values, obs.probing_cost)
        restored = clone.predict_with_interval(obs.values, obs.probing_cost)
        assert restored == pytest.approx(original)

    def test_interval_mostly_covers_observations(self, session_g1_build):
        _, outcome = session_g1_build
        covered = 0
        sample = outcome.observations[:60]
        for obs in sample:
            _, lower, upper = outcome.model.predict_with_interval(
                obs.values, obs.probing_cost, confidence=0.95
            )
            covered += lower <= obs.cost <= upper
        assert covered / len(sample) > 0.8
