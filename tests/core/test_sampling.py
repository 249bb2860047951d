"""Unit and property tests for sampling rules and collection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import G1, G3
from repro.core.probing import ProbingQuery
from repro.core.sampling import (
    OBSERVATIONS_PER_PARAMETER,
    SamplingPlan,
    collect_observations,
    minimum_observations,
    recommended_sample_size,
)
from repro.core.variables import UNARY_VARIABLES
from repro.engine.query import SelectQuery


class TestProposition41:
    def test_paper_formula(self):
        # 10 * ((n+1) * m + 1)
        assert minimum_observations(3, 4) == 10 * (4 * 4 + 1)
        assert minimum_observations(0, 1) == 20

    def test_static_case_is_m_equals_one(self):
        assert minimum_observations(5, 1) == 10 * (6 + 1)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            minimum_observations(-1, 2)
        with pytest.raises(ValueError):
            minimum_observations(2, 0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 12), m=st.integers(1, 10))
    def test_property_monotone_and_sufficient(self, n, m):
        """More variables or states never need fewer samples, and the
        bound always covers 10 observations per parameter."""
        base = minimum_observations(n, m)
        assert minimum_observations(n + 1, m) > base
        assert minimum_observations(n, m + 1) > base
        n_parameters = (n + 1) * m
        assert base >= OBSERVATIONS_PER_PARAMETER * n_parameters

    def test_recommended_uses_basic_plus_allowance(self):
        size = recommended_sample_size(UNARY_VARIABLES, max_states=6)
        assert size == minimum_observations(len(UNARY_VARIABLES.basic) + 2, 6)

    def test_recommended_validates_args(self):
        with pytest.raises(ValueError):
            recommended_sample_size(UNARY_VARIABLES, max_states=0)
        with pytest.raises(ValueError):
            recommended_sample_size(UNARY_VARIABLES, 3, secondary_allowance=-1)

    def test_paper_sizes_reproduced(self):
        # §5 used 370 unary / 550 join samples (m = 6, |B|+2 variables).
        assert recommended_sample_size(G1.variables, 6) == 370
        assert recommended_sample_size(G3.variables, 6) == 550


class TestCollection:
    def test_each_observation_paired_with_probe(self, dynamic_database):
        probe = ProbingQuery(dynamic_database, SelectQuery("t1", ("a",)))
        queries = [SelectQuery("t1", ("a",))] * 5
        observations = collect_observations(dynamic_database, queries, probe)
        assert len(observations) == 5
        for obs in observations:
            assert obs.probing_cost > 0
            assert obs.cost > 0
            assert "no" in obs.values

    def test_pause_advances_environment(self, dynamic_database):
        probe = ProbingQuery(dynamic_database, SelectQuery("t1", ("a",)))
        start = dynamic_database.environment.now
        collect_observations(
            dynamic_database,
            [SelectQuery("t1", ("a",))] * 3,
            probe,
            SamplingPlan(pause_seconds=100.0),
        )
        assert dynamic_database.environment.now >= start + 300.0

    def test_probing_costs_vary_with_contention(self, dynamic_database):
        probe = ProbingQuery(dynamic_database, SelectQuery("t1", ("a",)))
        observations = collect_observations(
            dynamic_database,
            [SelectQuery("t1", ("a",))] * 20,
            probe,
            SamplingPlan(pause_seconds=60.0),
        )
        probes = [o.probing_cost for o in observations]
        assert max(probes) > 2 * min(probes)

    def test_negative_pause_rejected(self, dynamic_database):
        probe = ProbingQuery(dynamic_database, SelectQuery("t1", ("a",)))
        with pytest.raises(ValueError):
            collect_observations(
                dynamic_database, [], probe, SamplingPlan(pause_seconds=-1)
            )


class TestNoResultRowIsRead:
    """The global level consumes elapsed times and sizes, never rows
    (paper §3.3, §4, Table 3) — so derivation traffic must not pay for
    building result tuples."""

    def test_sampling_and_probing_build_no_rows(self, dynamic_database, rows_built):
        probe = ProbingQuery(dynamic_database, SelectQuery("t1", ("a",)))
        assert probe.observe() > 0
        queries = [SelectQuery("t1", ("a", "b"))] * 5
        observations = collect_observations(dynamic_database, queries, probe)
        assert all(o.values["nr"] == 400 for o in observations)
        assert rows_built == []
        # ... while a client that reads a result builds it, once.
        result = dynamic_database.execute(queries[0]).result
        assert len(result.rows) == len(result.rows) == 400
        assert rows_built == [result]

    def test_building_a_model_builds_no_rows(self, rows_built):
        from repro.core import CostModelBuilder
        from repro.workload import make_site

        site = make_site("traffic_site", environment_kind="uniform", scale=0.01, seed=17)
        for query_class in (G1, G3):
            queries = site.generator.queries_for(query_class, 60)
            outcome = CostModelBuilder(site.database).build(
                query_class, queries, algorithm="iupma"
            )
            assert outcome.model.num_states >= 1
        assert rows_built == []
