"""Model-form ablation: coincident vs parallel vs concurrent vs general.

§3.2 argues that contention stretches both a query's initialization cost
(the intercept) and its per-tuple I/O/CPU costs (the slopes), so "to
incorporate a qualitative variable representing the system contention
states into a query cost model, the general qualitative regression model
is more appropriate".  This ablation fits all four Table-2 forms on the
same samples and states, so the claim is checkable: general should win,
and both one-sided forms (parallel, concurrent) should beat coincident.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.builder import CostModelBuilder
from ..core.classification import G1, QueryClass
from ..core.fitting import fit_qualitative
from ..core.iupma import determine_states_iupma
from ..core.qualitative import ModelForm
from ..engine.profiles import DBMSProfile, ORACLE_LIKE
from ..workload.scenarios import make_site
from .config import ExperimentConfig
from .report import format_table


@dataclass
class FormResult:
    form: ModelForm
    n_parameters: int
    r_squared: float
    standard_error: float


@dataclass
class ModelFormsResult:
    profile: str
    class_label: str
    num_states: int
    forms: list[FormResult]

    def result_for(self, form: ModelForm) -> FormResult:
        return next(f for f in self.forms if f.form is form)


def run_model_forms(
    config: ExperimentConfig | None = None,
    profile: DBMSProfile = ORACLE_LIKE,
    query_class: QueryClass = G1,
) -> ModelFormsResult:
    """Fit all four qualitative forms over IUPMA-determined states."""
    config = config or ExperimentConfig()
    site = make_site(
        f"{profile.name}_forms",
        profile=profile,
        environment_kind="uniform",
        scale=config.scale,
        seed=config.seed,
    )
    builder = CostModelBuilder(site.database, config=config.builder)
    queries = site.generator.queries_for(
        query_class, config.train_count(query_class.family)
    )
    observations = builder.collect(queries)

    names = query_class.variables.basic
    X = observations.matrix(names)
    y = observations.cost
    probing = observations.probing_cost

    determination = determine_states_iupma(
        X, y, probing, names, config.builder.states
    )
    states = determination.states

    forms = []
    for form in ModelForm:
        fit = fit_qualitative(X, y, probing, states, names, form)
        forms.append(
            FormResult(
                form=form,
                n_parameters=fit.ols.n_parameters,
                r_squared=fit.r_squared,
                standard_error=fit.standard_error,
            )
        )
    return ModelFormsResult(
        profile=profile.name,
        class_label=query_class.label,
        num_states=states.num_states,
        forms=forms,
    )


def render_model_forms(result: ModelFormsResult) -> str:
    headers = ("form", "# params", "R2", "SEE")
    rows = [
        (f.form.value, f.n_parameters, f.r_squared, f.standard_error)
        for f in result.forms
    ]
    return format_table(
        headers,
        rows,
        title=(
            f"Qualitative form ablation: {result.class_label} on "
            f"{result.profile} ({result.num_states} states)"
        ),
    )
