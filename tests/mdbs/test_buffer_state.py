"""Buffer-hit state as a qualitative variable through the MDBS tier:
observation metadata, model provenance, and composite accuracy keys."""

import json

import pytest

from repro.core.builder import CostModelBuilder
from repro.core.classification import G1
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.optimizer import CostEstimate, GlobalPlan
from repro.mdbs.registry import CostModelRegistry, ModelProvenance
from repro.mdbs.server import GlobalExecution, MDBSServer, StepTiming
from repro.obs.quality import AccuracyTracker, accuracy_table
from repro.workload import make_site


@pytest.fixture(scope="module")
def pooled_outcome():
    """A G1 model derived on a site that simulates a memory hierarchy."""
    site = make_site(
        "pooled_site", environment_kind="uniform", scale=0.008, seed=91,
        buffer_pages=128,
    )
    builder = CostModelBuilder(site.database)
    queries = site.generator.queries_for(G1, 80, tables=["R1", "R2", "R3"])
    return site, builder.build(G1, queries, algorithm="iupma")


class TestObservationMetadata:
    def test_every_observation_carries_hit_state(self, pooled_outcome):
        _, outcome = pooled_outcome
        for observation in outcome.observations:
            assert observation.metadata["buffer_hit_state"] in (
                "cold", "warm", "hot",
            )
            assert 0.0 <= observation.metadata["buffer_hit_rate"] <= 1.0

    def test_plain_site_has_no_hit_metadata(self):
        site = make_site("plain_site", scale=0.008, seed=92)
        builder = CostModelBuilder(site.database)
        queries = site.generator.queries_for(G1, 10, tables=["R1"])
        observations = builder.collect(queries)
        assert all("buffer_hit_state" not in o.metadata for o in observations)


class TestModelProvenance:
    def test_derived_model_lists_buffer_hit_state(self, pooled_outcome):
        _, outcome = pooled_outcome
        metadata = outcome.model.metadata
        assert metadata["qualitative_variables"] == [
            "contention_state", "buffer_hit_state",
        ]
        observed = metadata["observed_buffer_hit_states"]
        assert observed and set(observed) <= {"cold", "warm", "hot"}

    def test_provenance_round_trips_through_registry(self, pooled_outcome):
        _, outcome = pooled_outcome
        registry = CostModelRegistry()
        version = registry.publish("pooled_site", outcome.model)
        provenance = version.provenance
        assert provenance.qualitative_variables == (
            "contention_state", "buffer_hit_state",
        )
        restored = ModelProvenance.from_dict(
            json.loads(json.dumps(provenance.to_dict()))
        )
        assert restored.qualitative_variables == provenance.qualitative_variables

    def test_poolless_model_keeps_contention_only(self):
        site = make_site("plain_site2", scale=0.008, seed=93)
        builder = CostModelBuilder(site.database)
        queries = site.generator.queries_for(G1, 80, tables=["R1", "R2", "R3"])
        outcome = builder.build(G1, queries, algorithm="iupma")
        assert outcome.model.metadata["qualitative_variables"] == [
            "contention_state"
        ]
        version = CostModelRegistry().publish("plain_site2", outcome.model)
        assert version.provenance.qualitative_variables == ("contention_state",)


class TestCompositeAccuracyKeys:
    def test_plain_and_composite_states_coexist(self):
        tracker = AccuracyTracker()
        tracker.record("s1", "G1", 0, predicted=1.0, actual=1.1)
        tracker.record("s1", "G1", (0, "warm"), predicted=1.0, actual=2.0)
        tracker.record("s1", "G1", (1, "hot"), predicted=1.0, actual=1.0)
        keys = tracker.keys()
        assert keys == [
            ("s1", "G1", 0),
            ("s1", "G1", (0, "warm")),
            ("s1", "G1", (1, "hot")),
        ]
        assert tracker.stats("s1", "G1", (0, "warm")).count == 1
        assert tracker.stats("s1", "G1").count == 3  # class aggregate

    def test_table_and_snapshot_render_composite_states(self):
        tracker = AccuracyTracker()
        tracker.record("s1", "G1", (0, "cold"), predicted=1.0, actual=1.0)
        tracker.record("s1", "G1", 2, predicted=1.0, actual=1.0)
        rendered = accuracy_table(tracker)
        assert "s0/cold" in rendered and "s2" in rendered
        json.dumps(tracker.snapshot())  # must stay JSON-serializable

    def test_server_records_composite_key_for_pooled_site(self, pooled_outcome):
        site, _ = pooled_outcome
        tracker = AccuracyTracker()
        server = MDBSServer(accuracy=tracker)
        server.register_agent(MDBSAgent(site.database))
        # Warm the pool so the agent reports a definite hit state.
        site.database.execute("select a1 from R1 where a1 >= 0")
        hit_state = server.agents[site.name].buffer_hit_state()
        assert hit_state in ("cold", "warm", "hot")
        plan = GlobalPlan(
            query=None,
            components=None,
            join_site="left",
            estimates=[
                CostEstimate("left select", 1.0, "G1", 0, site.name),
                CostEstimate("ship", 0.2),  # no model: skipped
            ],
        )
        execution = GlobalExecution(
            plan=plan,
            column_names=(),
            rows=[],
            steps=[StepTiming("left select", 1.2), StepTiming("ship", 0.2)],
        )
        server._record_accuracy(plan, execution)
        assert tracker.keys() == [(site.name, "G1", (0, hit_state))]

    def test_server_keeps_plain_key_without_pool(self):
        site = make_site("plain_site3", scale=0.008, seed=94)
        tracker = AccuracyTracker()
        server = MDBSServer(accuracy=tracker)
        server.register_agent(MDBSAgent(site.database))
        plan = GlobalPlan(
            query=None,
            components=None,
            join_site="left",
            estimates=[CostEstimate("left select", 1.0, "G1", 3, site.name)],
        )
        execution = GlobalExecution(
            plan=plan, column_names=(), rows=[],
            steps=[StepTiming("left select", 1.1)],
        )
        server._record_accuracy(plan, execution)
        assert tracker.keys() == [(site.name, "G1", 3)]


class TestAgentSurface:
    def test_agent_exposes_hit_rate_and_state(self, pooled_outcome):
        site, _ = pooled_outcome
        agent = MDBSAgent(site.database)
        assert agent.buffer_hit_state() in ("cold", "warm", "hot")
        assert 0.0 <= agent.buffer_hit_rate() <= 1.0

    def test_agent_without_pool_reports_none(self):
        site = make_site("plain_site4", scale=0.008, seed=95)
        agent = MDBSAgent(site.database)
        assert agent.buffer_hit_rate() is None
        assert agent.buffer_hit_state() is None


class TestTelemetry:
    def test_execution_exports_buffer_gauges(self):
        """The pool's own counters and each result's metrics carry the
        buffer facts, and they agree with each other."""
        site = make_site("gauge_site", scale=0.008, seed=96, buffer_pages=64)
        pool = site.database.buffer_pool
        results = [
            site.database.execute("select a1 from R1 where a1 >= 0")
            for _ in range(2)
        ]
        assert pool.stats.logical_reads == sum(
            r.metrics.logical_page_reads for r in results
        ) > 0
        assert pool.stats.hits == sum(r.metrics.buffer_hits for r in results) > 0
        assert 0.0 <= results[-1].metrics.buffer_hit_rate <= 1.0
        assert 0.0 <= pool.hit_rate <= 1.0
        assert len(pool) >= 1
