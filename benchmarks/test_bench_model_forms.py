"""Ablation: the four qualitative regression forms of Table 2.

§3.2's argument: contention scales both the intercept (initialization
cost) and the slopes (per-tuple I/O + CPU costs), so the *general* form
should dominate, with the one-sided forms (parallel: intercept only;
concurrent: slopes only) in between and the coincident (static) form
worst.  This is a design-choice ablation DESIGN.md calls out.
"""

from repro.core.qualitative import ModelForm
from repro.experiments.model_forms import render_model_forms, run_model_forms


def test_bench_model_forms(config):
    result = run_model_forms(config)

    print()
    print(render_model_forms(result))

    general = result.result_for(ModelForm.GENERAL)
    parallel = result.result_for(ModelForm.PARALLEL)
    concurrent = result.result_for(ModelForm.CONCURRENT)
    coincident = result.result_for(ModelForm.COINCIDENT)

    # The paper's ordering argument.
    assert general.r_squared >= concurrent.r_squared
    assert general.r_squared >= parallel.r_squared
    assert parallel.r_squared > coincident.r_squared
    assert concurrent.r_squared > coincident.r_squared
    # (general vs coincident on R^2 and SEE: tests/experiments/test_runners.py,
    # at this preset and at tiny.)

    # Parameter counts follow Table 2's structure.
    assert coincident.n_parameters < parallel.n_parameters
    assert parallel.n_parameters < concurrent.n_parameters
    assert concurrent.n_parameters < general.n_parameters
