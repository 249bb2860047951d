"""Multi-states cost models: the artifact the MDBS catalog stores.

A :class:`MultiStateCostModel` packages everything global query
optimization needs to estimate a local query's cost in a dynamic
environment: the query class, the selected explanatory variables, the
contention-state partition of the probing-cost range, and the fitted
per-state regression coefficients.  Estimating a cost takes (a) the
variable values predicted for the query (from the MDBS catalog and
selectivity estimates) and (b) a current probing cost — observed or
estimated — to resolve the contention state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fitting import QualitativeFit
from .partition import ContentionStates
from .qualitative import ModelForm, adjusted_coefficients, design_row


@dataclass
class MultiStateCostModel:
    """A fitted qualitative regression cost model for one query class."""

    class_label: str
    family: str
    variable_names: tuple[str, ...]
    form: ModelForm
    states: ContentionStates
    coefficients: np.ndarray
    term_names: tuple[str, ...]
    # -- training statistics --------------------------------------------
    r_squared: float
    standard_error: float
    f_statistic: float | None
    f_pvalue: float | None
    n_observations: int
    algorithm: str = "iupma"
    metadata: dict = field(default_factory=dict)

    # -- prediction -------------------------------------------------------

    @property
    def num_states(self) -> int:
        return self.states.num_states

    def state_for(self, probing_cost: float) -> int:
        """Contention state indicated by *probing_cost*."""
        return self.states.state_of(probing_cost)

    def predict(self, values: Mapping[str, float], probing_cost: float) -> float:
        """Estimated cost for a query with *values*, given a probing cost."""
        state = self.state_for(probing_cost)
        return self.predict_in_state(values, state)

    def predict_in_state(self, values: Mapping[str, float], state: int) -> float:
        """Estimated cost assuming contention state *state*."""
        try:
            x = [float(values[n]) for n in self.variable_names]
        except KeyError as exc:
            raise KeyError(f"missing variable {exc.args[0]!r}") from None
        row = design_row(x, state, self.num_states, self.form)
        return float(row @ self.coefficients)

    def is_significant(self, alpha: float = 0.01) -> bool:
        """Overall F-test on the training fit."""
        return self.f_pvalue is not None and self.f_pvalue < alpha

    def validation_stats(self) -> dict:
        """The training-fit statistics the model-lifecycle layer records
        as provenance (R², SEE, F, sample size)."""
        return {
            "r_squared": self.r_squared,
            "standard_error": self.standard_error,
            "f_statistic": self.f_statistic,
            "f_pvalue": self.f_pvalue,
            "n_observations": self.n_observations,
        }

    # -- inspection ------------------------------------------------------------

    def per_state_coefficients(self) -> np.ndarray:
        """B'[state, variable] effective coefficients (var 0 = intercept)."""
        return adjusted_coefficients(
            self.coefficients, len(self.variable_names), self.num_states, self.form
        )

    def equation_table(self) -> str:
        """Render the per-state equations, Table-4 style."""
        B = self.per_state_coefficients()
        lines = [
            f"{self.class_label} ({self.family}; {self.num_states} states; "
            f"form={self.form.value}; algorithm={self.algorithm})",
            f"states: {self.states.describe()}",
        ]
        for i in range(self.num_states):
            terms = [f"{B[i, 0]:+.3e}"]
            terms += [
                f"{B[i, j + 1]:+.3e}*{name}"
                for j, name in enumerate(self.variable_names)
            ]
            lines.append(f"  s{i}: cost = " + " ".join(terms))
        return "\n".join(lines)

    # -- (de)serialization for the global catalog ---------------------------------

    def to_dict(self) -> dict:
        return {
            "class_label": self.class_label,
            "family": self.family,
            "variable_names": list(self.variable_names),
            "form": self.form.value,
            "states": {
                "cmin": self.states.cmin,
                "cmax": self.states.cmax,
                "boundaries": list(self.states.boundaries),
            },
            "coefficients": [float(c) for c in self.coefficients],
            "term_names": list(self.term_names),
            "r_squared": self.r_squared,
            "standard_error": self.standard_error,
            "f_statistic": self.f_statistic,
            "f_pvalue": self.f_pvalue,
            "n_observations": self.n_observations,
            "algorithm": self.algorithm,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MultiStateCostModel":
        states = ContentionStates(
            payload["states"]["cmin"],
            payload["states"]["cmax"],
            tuple(payload["states"]["boundaries"]),
        )
        return cls(
            class_label=payload["class_label"],
            family=payload["family"],
            variable_names=tuple(payload["variable_names"]),
            form=ModelForm(payload["form"]),
            states=states,
            coefficients=np.asarray(payload["coefficients"], dtype=float),
            term_names=tuple(payload["term_names"]),
            r_squared=payload["r_squared"],
            standard_error=payload["standard_error"],
            f_statistic=payload["f_statistic"],
            f_pvalue=payload["f_pvalue"],
            n_observations=payload["n_observations"],
            algorithm=payload.get("algorithm", "iupma"),
            metadata=dict(payload.get("metadata", {})),
        )

    @classmethod
    def from_fit(
        cls,
        fit: QualitativeFit,
        class_label: str,
        family: str,
        algorithm: str,
        **metadata,
    ) -> "MultiStateCostModel":
        """Package a :class:`QualitativeFit` as a catalog-ready model."""
        return cls(
            class_label=class_label,
            family=family,
            variable_names=fit.variable_names,
            form=fit.form,
            states=fit.states,
            coefficients=np.asarray(fit.ols.coefficients, dtype=float),
            term_names=fit.ols.term_names,
            r_squared=fit.ols.r_squared,
            standard_error=fit.ols.standard_error,
            f_statistic=fit.ols.f_statistic,
            f_pvalue=fit.ols.f_pvalue,
            n_observations=fit.ols.n_observations,
            algorithm=algorithm,
            metadata=dict(metadata),
        )
