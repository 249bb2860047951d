"""Unit tests for the global query optimizer."""

import pytest

from repro.core.classification import G3, classify
from repro.engine.predicate import Comparison
from repro.engine.query import SelectQuery
from repro.mdbs.catalog import GlobalCatalog
from repro.mdbs.gquery import GlobalJoinQuery
from repro.mdbs.optimizer import (
    GlobalQueryOptimizer,
    estimate_join_variables,
    estimate_unary_variables,
    facts_to_statistics,
)
from repro.mdbs.registry import CostModelRegistryError

from .conftest import calibrate


@pytest.fixture
def globalq():
    return GlobalJoinQuery(
        "oracle_site",
        "R2",
        "db2_site",
        "R3",
        "a4",
        "a4",
        ("R2.a1", "R3.a2"),
        left_predicate=Comparison("a3", "<", 500),
        right_predicate=Comparison("a7", ">", 25000),
    )


class TestFactsConversion:
    def test_statistics_round_trip(self, mini_mdbs):
        server, sites = mini_mdbs
        facts = server.catalog.table("oracle_site", "R1")
        stats = facts_to_statistics(facts)
        real = sites["oracle_site"].database.catalog.table("R1").statistics
        assert stats.cardinality == real.cardinality
        assert stats.column("a1").minimum == real.column("a1").minimum
        assert stats.column("a1").distinct_count == real.column("a1").distinct_count


class TestVariableEstimation:
    def test_unary_estimates_close_to_actual(self, mini_mdbs):
        server, sites = mini_mdbs
        site = sites["oracle_site"]
        query = SelectQuery("R2", ("a1", "a5"), Comparison("a3", "<", 300))
        query_class = classify(site.database, query)
        facts = server.catalog.table("oracle_site", "R2")
        estimated = estimate_unary_variables(facts, query, query_class)
        actual = site.database.execute(query)
        assert estimated["no"] == actual.infos[0].operand_cardinality
        assert estimated["nr"] == pytest.approx(actual.result.cardinality, rel=0.25)
        assert estimated["lo"] == facts.tuple_length
        assert estimated["lr"] == sum(
            facts.column_widths[c] for c in ("a1", "a5")
        )

    def test_index_class_reduces_intermediate(self, mini_mdbs):
        server, sites = mini_mdbs
        site = sites["oracle_site"]
        table = site.database.catalog.table("R2")
        cut = int(table.statistics.column("a1").maximum * 0.05)
        query = SelectQuery("R2", ("a1",), Comparison("a1", "<", cut))
        query_class = classify(site.database, query)
        assert query_class.label == "G2"
        facts = server.catalog.table("oracle_site", "R2")
        estimated = estimate_unary_variables(facts, query, query_class)
        assert estimated["ni"] < estimated["no"]

    def test_join_variable_consistency(self):
        values = estimate_join_variables(100.0, 200.0, 16.0, 24.0, 50, 80)
        assert values["nixni"] == 100.0 * 200.0
        assert values["nr"] == pytest.approx(100.0 * 200.0 / 80.0)
        assert values["lr"] == 40.0
        assert values["tl1"] == 1600.0

    def test_join_ndv_clamped_to_cardinality(self):
        # ndv larger than the intermediate cannot inflate the result.
        values = estimate_join_variables(10.0, 10.0, 8.0, 8.0, 1000, 1000)
        assert values["nr"] == pytest.approx(10.0)


class TestPlans:
    def test_two_candidates_enumerated(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        plans = server.optimizer.plans(globalq)
        assert {p.join_site for p in plans} == {"left", "right"}

    def test_each_plan_has_four_estimates(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        for plan in server.optimizer.plans(globalq):
            assert len(plan.estimates) == 4
            assert plan.estimated_seconds >= 0.0
            assert plan.describe()

    def test_choose_picks_minimum(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        chosen, candidates = server.optimizer.choose(globalq)
        assert {p.join_site for p in candidates} == {"left", "right"}
        assert chosen in candidates
        assert chosen.estimated_seconds == min(p.estimated_seconds for p in candidates)

    def test_estimates_cite_cost_models(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        plan, _ = server.optimize(globalq)
        labels = {e.class_label for e in plan.estimates if e.class_label}
        assert labels <= {"G1", "G2", "G3", "GC"}
        assert any(e.class_label == "G3" for e in plan.estimates)  # the join


class TestClassFallback:
    def test_missing_class_model_degrades_to_same_family(self, mini_mdbs):
        """mini_mdbs has only G1/G3 models; a G2 query must not abort the
        estimation — the optimizer stands in a same-family (unary) model."""
        server, sites = mini_mdbs
        site = sites["oracle_site"]
        table = site.database.catalog.table("R2")
        cut = int(table.statistics.column("a1").maximum * 0.05)
        query = SelectQuery("R2", ("a1",), Comparison("a1", "<", cut))
        assert classify(site.database, query).label == "G2"
        estimate, values = server.optimizer.estimate_select("oracle_site", query)
        assert estimate.class_label == "G2"  # reported as classified
        assert estimate.seconds >= 0.0
        # The G1 model stood in: the estimate is its prediction.
        stand_in = server.catalog.registry.active_model("oracle_site", "G1")
        assert estimate.seconds == max(
            0.0, stand_in.predict_in_state(values, estimate.state)
        )

    def test_no_same_family_candidate_reraises(self, mini_mdbs):
        server, _ = mini_mdbs
        catalog = GlobalCatalog()
        catalog.register_site("oracle_site")
        catalog.registry.publish(
            "oracle_site", server.catalog.registry.active_model("oracle_site", "G1")
        )
        optimizer = GlobalQueryOptimizer(catalog, server.agents, server.network)
        # Only a unary model exists; a join-family class has no stand-in.
        with pytest.raises(CostModelRegistryError):
            optimizer._model_for("oracle_site", G3)


class TestEstimatedProbingPath:
    def test_optimizer_with_estimated_probing(self, mini_mdbs, globalq, monkeypatch):
        """End-to-end: with the probing query unavailable, the optimizer
        resolves contention states from eq.-(2)-estimated probing costs
        (the chain's second level) and its plan still holds up."""
        server, _ = mini_mdbs

        def unavailable():
            raise RuntimeError("probe table is gone")

        for agent in server.agents.values():
            # Registered first so the undo restores the uncalibrated agent.
            monkeypatch.setattr(agent, "estimator", agent.estimator)
            calibrate(agent)
            monkeypatch.setattr(agent, "observed_probing_cost", unavailable)
        plan, _ = server.optimizer.choose(globalq)
        assert plan.join_site in ("left", "right")
        for site in server.agents:
            assert server.probing.probe(site).source == "estimated"
        execution = server.execute(globalq, plan)
        ratio = max(
            execution.observed_seconds / max(execution.estimated_seconds, 1e-9),
            execution.estimated_seconds / max(execution.observed_seconds, 1e-9),
        )
        assert ratio < 10.0
