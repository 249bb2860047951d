"""Integration: the pipeline works for EVERY query class in the taxonomy.

The paper's §5 reports G1, G2, and G3; the classification of §4.1 covers
more access methods.  These tests push the full pipeline (generation →
sampling → state determination → selection → fit → validation) through
the remaining classes — clustered-index scans (GC), index nested-loop
joins (G4), and sort-merge joins (G5) — asserting the same qualitative
outcome: a significant multi-states model that beats its one-state twin.
"""

import pytest

from repro.core import ALL_CLASSES, CostModelBuilder, validate_model
from repro.workload import make_site

BY_LABEL = {query_class.label: query_class for query_class in ALL_CLASSES}

CLASS_CASES = [
    ("GC", 110, None),
    ("G4", 110, ("R1", "R2", "R3", "R4", "R5", "R6")),
    ("G5", 110, None),
]


@pytest.fixture(scope="module")
def coverage_site():
    return make_site("coverage_site", environment_kind="uniform", scale=0.01, seed=55)


@pytest.mark.parametrize("label,count,tables", CLASS_CASES)
def test_full_pipeline_for_class(coverage_site, label, count, tables):
    query_class = BY_LABEL[label]
    builder = CostModelBuilder(coverage_site.database)
    train = builder.collect(
        coverage_site.generator.queries_for(query_class, count, tables=tables)
    )
    test = builder.collect(
        coverage_site.generator.queries_for(query_class, 40, tables=tables)
    )

    multi = builder.build_from_observations(train, query_class, "iupma")
    one = builder.build_from_observations(train, query_class, "static")

    assert multi.model.class_label == label
    assert multi.model.num_states >= 2, f"{label}: no contention states found"
    assert multi.model.is_significant(alpha=0.01), f"{label}: F-test failed"

    report_multi = validate_model(multi.model, test)
    report_one = validate_model(one.model, test)
    assert report_multi.r_squared > report_one.r_squared, label
    assert report_multi.pct_good >= report_one.pct_good, label
    assert report_multi.pct_good > 50.0, label


def test_sampled_plans_match_class_method(coverage_site):
    """Every sampled query of each class actually executed with the
    class's access method (homogeneity of the sample)."""
    builder = CostModelBuilder(coverage_site.database)
    for label, count, tables in CLASS_CASES:
        query_class = BY_LABEL[label]
        queries = coverage_site.generator.queries_for(
            query_class, 6, tables=tables
        )
        observations = builder.collect(queries)
        plans = {obs.metadata["plan"] for obs in observations}
        assert plans == {query_class.access_method}, label
