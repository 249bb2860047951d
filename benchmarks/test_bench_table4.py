"""Table 4: the derived multi-states cost models (G1/G2/G3 x DB2/Oracle).

Paper: prints the per-state cost-estimation formulas with the
qualitative variable.  Reproduction target: a general-form model per
(profile, class) whose per-state intercepts and result-size slopes grow
with the contention state, echoing the paper's printed coefficients.
"""

import numpy as np

from repro.experiments.table4 import render_table4, run_table4


def test_bench_table4(config):
    rows = run_table4(config)

    print()
    print("Table 4: multi-state cost models")
    print(render_table4(rows))

    assert len(rows) == 6  # 2 profiles x 3 classes
    for row in rows:
        model = row.model
        assert model.num_states >= 2, f"{row.profile}/{model.class_label}"
        assert model.form.value == "general"
        assert model.is_significant(alpha=0.01)

        # The contention states must matter: a representative query (the
        # training-mean variable values) must cost strictly more in the
        # most loaded state than in the idle state, echoing the growing
        # per-state coefficients of the paper's printed equations.
        means = model.metadata["variable_means"]
        costs = np.array(
            [model.predict_in_state(means, s) for s in range(model.num_states)]
        )
        assert costs[-1] > 2 * costs[0] > 0, (
            f"{row.profile}/{model.class_label}: per-state costs not "
            f"growing: {costs}"
        )
