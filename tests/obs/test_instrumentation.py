"""Integration: the engine / builder / model-lifecycle layers feed repro.obs.

(The MDBS server's per-step trace is covered in tests/mdbs/test_server.py,
where a populated two-site system is available.)
"""

import json

import pytest

from repro import obs
from repro.core import CostModelBuilder, G1, derivation_report
from repro.mdbs.lifecycle import ModelLifecycle
from repro.mdbs.registry import CostModelRegistry
from repro.workload import make_site


@pytest.fixture(scope="module")
def obs_site():
    return make_site("obs_site", environment_kind="uniform", scale=0.008, seed=21)


class TestEngineInstrumentation:
    def test_execute_result_carries_its_work(
        self, small_database, fresh_registry
    ):
        """An execution's pages, CPU work and simulated-time breakdown
        are on its result; the metrics registry records none of it."""
        result = small_database.execute("select a, b from t1 where a < 500")
        metrics = result.metrics
        assert (
            metrics.sequential_page_reads + metrics.random_page_reads
            == metrics.total_page_reads
            > 0
        )
        assert metrics.tuples_read + metrics.tuples_output > 0
        breakdown = result.breakdown
        assert breakdown.io_time > 0.0 and breakdown.cpu_time > 0.0
        assert breakdown.slowdown >= 1.0
        assert result.elapsed == breakdown.elapsed
        assert fresh_registry.names() == []

    def test_execute_span_attributes(self, small_database, tracer):
        result = small_database.execute("select a from t1 where a < 100")
        spans = [s for s in tracer.finished() if s.name == "engine.execute"]
        assert len(spans) == 1
        attrs = spans[0].attributes
        assert attrs["database"] == "unit_db"
        assert attrs["plan"] == result.plan
        assert attrs["rows"] == result.cardinality
        assert attrs["simulated_seconds"] == pytest.approx(result.elapsed)


class TestBuilderInstrumentation:
    @pytest.fixture(scope="class")
    def traced_build(self, obs_site):
        builder = CostModelBuilder(obs_site.database)
        queries = obs_site.generator.queries_for(G1, 60)
        with obs.recording() as tracer:
            outcome = builder.build(G1, queries, algorithm="iupma")
        return tracer, outcome

    def test_phase_timings_surfaced_in_outcome(self, traced_build):
        _, outcome = traced_build
        assert list(outcome.timings) == [
            "sampling",
            "partitioning",
            "variable_selection",
            "fitting",
        ]
        assert all(seconds >= 0.0 for seconds in outcome.timings.values())
        # Sampling runs real queries; it cannot take literally zero time.
        assert outcome.timings["sampling"] > 0.0

    def test_build_produces_wellformed_nested_trace(self, traced_build):
        tracer, _ = traced_build
        spans = tracer.finished()
        by_id = {s.span_id: s for s in spans}
        names = {s.name for s in spans}
        assert {
            "build",
            "build.sampling",
            "build.derive",
            "build.partitioning",
            "build.variable_selection",
            "build.fitting",
        } <= names
        (root,) = [s for s in spans if s.name == "build"]
        assert root.parent_id is None
        for name in ("build.sampling", "build.derive"):
            (span,) = [s for s in spans if s.name == name]
            assert by_id[span.parent_id].name == "build"
        for name in (
            "build.partitioning",
            "build.variable_selection",
            "build.fitting",
        ):
            (span,) = [s for s in spans if s.name == name]
            assert by_id[span.parent_id].name == "build.derive"
        # Engine executions nest under the sampling phase.
        engine_spans = [s for s in spans if s.name == "engine.execute"]
        assert engine_spans
        (sampling,) = [s for s in spans if s.name == "build.sampling"]
        assert all(s.parent_id == sampling.span_id for s in engine_spans)
        # Every span closed, and parents envelop their children.
        for span in spans:
            assert span.end is not None
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert parent.end >= span.end

    def test_trace_exports_as_jsonl(self, traced_build, tmp_path):
        tracer, _ = traced_build
        path = tmp_path / "build.jsonl"
        count = obs.write_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        assert count == len(lines) > 0
        decoded = [json.loads(line) for line in lines]
        ids = {e["span_id"] for e in decoded}
        assert all(e["parent_id"] is None or e["parent_id"] in ids for e in decoded)

    def test_report_includes_derivation_cost_section(self, traced_build):
        _, outcome = traced_build
        text = derivation_report(outcome)
        assert "Derivation cost" in text
        for phase in outcome.timings:
            assert phase in text
        assert "total:" in text

    def test_validation_emits_span(self, traced_build, tracer):
        from repro.core import validate_model

        _, outcome = traced_build
        validate_model(outcome.model, outcome.observations[:10])
        (span,) = [s for s in tracer.finished() if s.name == "build.validation"]
        assert span.attributes["n_queries"] == 10

    def test_outcome_timings_default_empty_for_direct_construction(self):
        # Backward compatibility: the field is optional.
        import repro.core.builder as builder_mod

        fields = {f.name for f in builder_mod.BuildOutcome.__dataclass_fields__.values()}
        assert "timings" in fields


class TestMaintenanceInstrumentation:
    def test_rebuild_emits_span_and_counter(self, obs_site, fresh_registry):
        lifecycle = ModelLifecycle(CostModelRegistry(), obs.AccuracyTracker(export=False))
        lifecycle.watch(
            obs_site.name,
            CostModelBuilder(obs_site.database),
            lambda query_class, n: obs_site.generator.queries_for(query_class, n),
        )
        with obs.recording() as tracer:
            lifecycle.register(obs_site.name, G1, sample_count=40)
        rebuild_spans = [
            s for s in tracer.finished() if s.name == "maintenance.rebuild"
        ]
        assert len(rebuild_spans) == 1
        assert rebuild_spans[0].attributes["class_label"] == "G1"
        # An initial build has no triggering event.
        assert rebuild_spans[0].attributes["trigger"] is None
        # The full build pipeline nests under the rebuild span.
        by_id = {s.span_id: s for s in tracer.finished()}
        (build,) = [s for s in tracer.finished() if s.name == "build"]
        assert by_id[build.parent_id].name == "maintenance.rebuild"
        assert fresh_registry.counter_value("maintenance.rebuilds") == 1.0
