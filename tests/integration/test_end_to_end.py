"""Integration tests: the full pipeline, cross-checked end to end."""

import numpy as np
import pytest

from repro.core import (
    CostModelBuilder,
    G1,
    MultiStateCostModel,
    classify,
    extract_variables,
    validate_model,
)
from repro.engine import Comparison
from repro.mdbs import GlobalJoinQuery, MDBSAgent, MDBSServer
from repro.workload import make_site


class TestPipeline:
    def test_derived_model_beats_one_state_on_holdout(self, session_g1_build):
        builder, outcome = session_g1_build
        test = outcome.observations[::4]
        train = outcome.observations[np.arange(len(outcome.observations)) % 4 != 0]
        multi = builder.build_from_observations(train, G1, "iupma").model
        one = builder.build_from_observations(train, G1, "static").model
        report_multi = validate_model(multi, test)
        report_one = validate_model(one, test)
        assert report_multi.pct_good > report_one.pct_good
        assert report_multi.r_squared > report_one.r_squared

    def test_model_survives_catalog_round_trip_and_predicts(self, session_g1_build):
        builder, outcome = session_g1_build
        model = MultiStateCostModel.from_dict(outcome.model.to_dict())
        obs = outcome.observations[0]
        assert model.predict(obs.values, obs.probing_cost) == pytest.approx(
            outcome.model.predict(obs.values, obs.probing_cost)
        )

    def test_estimates_usable_for_fresh_query(self, session_site, session_g1_build):
        builder, outcome = session_g1_build
        query = session_site.generator.queries_for(G1, 1)[0]
        assert classify(session_site.database, query) is G1
        probing = builder.probe.observe()
        result = session_site.database.execute(query)
        estimate = outcome.model.predict(extract_variables(result), probing)
        # Same order of magnitude as the observation.
        assert estimate > 0
        assert max(estimate / result.elapsed, result.elapsed / estimate) < 10


class TestGlobalFlow:
    def test_models_drive_global_optimization(self):
        """Build a 2-site MDBS from scratch and execute a global join."""
        left = make_site("site_a", environment_kind="uniform", scale=0.008, seed=71)
        right = make_site("site_b", environment_kind="uniform", scale=0.008, seed=72)
        server = MDBSServer()
        for site in (left, right):
            server.register_agent(MDBSAgent(site.database))
            builder = CostModelBuilder(site.database)
            from repro.core import G3

            for qc, n in ((G1, 70), (G3, 80)):
                queries = site.generator.queries_for(qc, n, tables=["R1", "R2", "R3"])
                server.store_cost_model(
                    site.name, builder.build(qc, queries).model
                )
        query = GlobalJoinQuery(
            "site_a",
            "R2",
            "site_b",
            "R3",
            "a4",
            "a4",
            ("R2.a1", "R3.a5"),
            left_predicate=Comparison("a3", "<", 700),
        )
        execution = server.execute(query)
        # Observed and estimated agree to within an order of magnitude,
        # and the result itself is a genuine cross-site join.
        ratio = max(
            execution.observed_seconds / max(execution.estimated_seconds, 1e-9),
            execution.estimated_seconds / max(execution.observed_seconds, 1e-9),
        )
        assert ratio < 10
        t2 = left.database.catalog.table("R2")
        t3 = right.database.catalog.table("R3")
        a4_left = t2.schema.position("a4")
        a3_left = t2.schema.position("a3")
        keys_left = {r[a4_left] for r in t2.rows() if r[a3_left] < 700}
        keys_right = {r[t3.schema.position("a4")] for r in t3.rows()}
        assert execution.cardinality > 0
        assert len(keys_left & keys_right) > 0
