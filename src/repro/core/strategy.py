"""Pluggable cost-model strategies: batch OLS and online RLS.

The paper derives every cost model with one *model form* — qualitative
multiple regression solved by batch OLS and re-derived wholesale when
the environment drifts.  The machinery around it (builder, registry,
model lifecycle) is model-agnostic in shape, so this module makes the
form an explicit strategy:

* :class:`OLSStrategy` (``mlr.ols``) — the paper's multi-states method,
  byte-identical to the pre-strategy pipeline.  It is the default and
  leaves the :class:`~repro.core.model.MultiStateCostModel` produced by
  the batch fit untouched.
* :class:`RLSStrategy` (``mlr.rls``) — recursive least squares with a
  forgetting factor.  Batch derivation streams the selected design
  through RLS (converging to the OLS coefficients); at serving time each
  estimate-vs-actual sample updates the coefficients in place, so the
  model tracks regime shifts without a re-derivation.

Because the qualitative design row (:func:`repro.core.qualitative.design_row`)
already encodes per-state intercepts and slopes, one coefficient vector
updated online *is* a per-qualitative-state online model — each update
only touches the active state's block of the GENERAL form.

Strategy identity travels in ``model.metadata["model_form"]`` (absent
for the default, keeping the OLS artifact byte-identical) and is
surfaced by the registry as provenance (schema_version 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from ..mlr.rls import DEFAULT_DELTA, RecursiveLeastSquares, rls_fit
from .fitting import QualitativeFit
from .model import MultiStateCostModel
from .qualitative import design_row

__all__ = [
    "DEFAULT_STRATEGY",
    "MODEL_FORM_KEY",
    "STRATEGY_NAMES",
    "CostModelStrategy",
    "OLSStrategy",
    "OnlineSample",
    "RLSStrategy",
    "model_form",
    "resolve_strategy",
    "strategy_for",
]

DEFAULT_STRATEGY = "mlr.ols"
MODEL_FORM_KEY = "model_form"


@dataclass(frozen=True)
class OnlineSample:
    """One served query's estimate-vs-actual feedback for online forms."""

    values: Mapping[str, float]
    state: int
    actual: float


class CostModelStrategy:
    """How cost-model coefficients are derived and (optionally) updated."""

    name: ClassVar[str]
    supports_online_update: ClassVar[bool] = False

    # -- batch derivation --------------------------------------------------

    def fit(self, fit: QualitativeFit) -> np.ndarray:
        """Coefficient vector over *fit*'s qualitative design."""
        return np.asarray(fit.ols.coefficients, dtype=float)

    def finalize(
        self, model: MultiStateCostModel, fit: QualitativeFit
    ) -> MultiStateCostModel:
        """Rework the batch-derived *model* for this strategy.

        The default (OLS) is the identity — the batch artifact ships
        unchanged, byte for byte.  Online strategies re-derive the
        coefficients from the same selected design and stamp the form
        into the model metadata.
        """
        return model

    # -- online updates ----------------------------------------------------

    def make_updater(self, model: MultiStateCostModel):
        """Serving-time estimator warm-started from *model* (None = n/a)."""
        return None

    def update(self, model: MultiStateCostModel, sample: OnlineSample, updater) -> float | None:
        """Fold one served sample into *model* via *updater*.

        Mutates ``model.coefficients`` in place so every holder of the
        registered model (optimizer, plan cache resolution, exports)
        sees the updated form.  Returns the a-priori residual, or None
        when the strategy does not update online.
        """
        if not self.supports_online_update or updater is None:
            return None
        try:
            x = [float(sample.values[name]) for name in model.variable_names]
        except KeyError:
            return None
        state = min(max(int(sample.state), 0), model.num_states - 1)
        row = design_row(x, state, model.num_states, model.form)
        error = updater.update(row, float(sample.actual))
        model.coefficients[:] = updater.coefficients
        return error

    # -- shared helpers ----------------------------------------------------

    def _rework(
        self,
        model: MultiStateCostModel,
        fit: QualitativeFit,
        theta: np.ndarray,
    ) -> MultiStateCostModel:
        """Install *theta* into *model* and refresh the training stats."""
        model.coefficients = np.asarray(theta, dtype=float)
        if fit.response is not None:
            y = np.asarray(fit.response, dtype=float)
            residuals = y - fit.design @ model.coefficients
            sse = float(residuals @ residuals)
            sst = float(((y - y.mean()) ** 2).sum())
            model.r_squared = 1.0 - sse / sst if sst > 0.0 else 0.0
            df_error = len(y) - len(model.coefficients)
            model.standard_error = (
                float(np.sqrt(sse / df_error)) if df_error > 0 else float("nan")
            )
        model.metadata[MODEL_FORM_KEY] = self.name
        return model


class OLSStrategy(CostModelStrategy):
    """The paper's batch multi-states OLS — the byte-identical default."""

    name = "mlr.ols"
    supports_online_update = False


class RLSStrategy(CostModelStrategy):
    """Recursive least squares with forgetting, per qualitative state."""

    name = "mlr.rls"
    supports_online_update = True
    #: Serving-time forgetting factor: old samples fade by 2% per update.
    forgetting: ClassVar[float] = 0.98
    #: Inverse-covariance initialisation (``delta * I``).
    delta: ClassVar[float] = DEFAULT_DELTA

    def fit(self, fit: QualitativeFit) -> np.ndarray:
        if fit.response is None:
            return np.asarray(fit.ols.coefficients, dtype=float)
        # Batch derivation uses no forgetting: with lambda = 1 the
        # recursion converges to the (ridge-stabilised) OLS solution.
        return rls_fit(fit.design, fit.response, forgetting=1.0, delta=self.delta)

    def finalize(
        self, model: MultiStateCostModel, fit: QualitativeFit
    ) -> MultiStateCostModel:
        return self._rework(model, fit, self.fit(fit))

    def make_updater(self, model: MultiStateCostModel) -> RecursiveLeastSquares:
        return RecursiveLeastSquares(
            len(model.coefficients),
            forgetting=self.forgetting,
            theta=np.asarray(model.coefficients, dtype=float),
        )


_STRATEGIES: dict[str, type[CostModelStrategy]] = {
    OLSStrategy.name: OLSStrategy,
    RLSStrategy.name: RLSStrategy,
}

STRATEGY_NAMES: tuple[str, ...] = tuple(sorted(_STRATEGIES))


def resolve_strategy(name: str) -> CostModelStrategy:
    """Instantiate the strategy registered under *name*."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(STRATEGY_NAMES)
        raise ValueError(f"unknown cost-model strategy {name!r} (known: {known})")
    return cls()


def model_form(model: MultiStateCostModel) -> str:
    """The strategy name a model was derived with (absent = OLS default)."""
    return model.metadata.get(MODEL_FORM_KEY, DEFAULT_STRATEGY)


def strategy_for(model: MultiStateCostModel) -> CostModelStrategy:
    """Reconstruct a model's strategy from its metadata."""
    return resolve_strategy(model_form(model))
