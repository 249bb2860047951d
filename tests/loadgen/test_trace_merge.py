"""Cross-process trace merging: byte-identity, shapes, analytics feed.

The merged trace is the loadgen side of the tracing acceptance
criterion: shard workers record and export spans locally, and the
coordinator merges them in index order into one canonical JSONL
document that must be byte-identical at any worker count.
"""

import json

import pytest

from repro.loadgen import Coordinator, FaultSchedule, LoadGenConfig
from repro.loadgen.coordinator import DEFAULT_GAP_SECONDS
from repro.loadgen.faults import named_fault_plan
from repro.obs.trace_analysis import (
    ROOT_SPAN_NAME,
    group_traces,
    trace_root,
    trace_stage_seconds,
)


def traced_loadgen(config, **overrides):
    defaults = dict(
        experiment=config,
        shards=2,
        rounds=3,
        faults=FaultSchedule(),
        trace=True,
    )
    defaults.update(overrides)
    return LoadGenConfig(**defaults)


@pytest.fixture(scope="module")
def traced_report(micro_config, trained_payload):
    config = traced_loadgen(micro_config)
    return Coordinator(config, payload=trained_payload).run(workers=1)


class TestMergedTrace:
    def test_merged_trace_is_canonical_jsonl(self, traced_report):
        merged = traced_report.merged_trace()
        lines = merged.splitlines()
        assert lines
        for line in lines:
            span = json.loads(line)
            # Canonical rendering: sorted keys, compact separators.
            assert line == json.dumps(
                span, sort_keys=True, separators=(",", ":")
            )

    def test_shards_merge_in_index_order(self, traced_report):
        spans = [
            json.loads(line)
            for line in traced_report.merged_trace().splitlines()
        ]
        shards = [span["trace_id"].split("-")[0] for span in spans]
        # s000 spans come before s001 spans, never interleaved.
        assert shards == sorted(shards)
        assert set(shards) == {"s000", "s001"}

    def test_merged_trace_feeds_the_analytics_pipeline(self, traced_report):
        """Every served request is one connected tree the stage-breakdown
        tooling can attribute — the cross-process postmortem contract."""
        spans = [
            json.loads(line)
            for line in traced_report.merged_trace().splitlines()
        ]
        groups = group_traces(spans)
        assert len(groups) == sum(r.requests for r in traced_report.shard_reports)
        for trace_spans in groups.values():
            root = trace_root(trace_spans)
            assert root["name"] == ROOT_SPAN_NAME
            by_id = {s["span_id"]: s for s in trace_spans}
            assert all(
                s["parent_id"] is None or s["parent_id"] in by_id
                for s in trace_spans
            )
            totals = trace_stage_seconds(trace_spans)
            assert min(totals.values()) >= 0.0
            assert sum(totals.values()) == pytest.approx(root["duration"])

    def test_write_merged_trace_round_trips(self, traced_report, tmp_path):
        path = tmp_path / "merged.jsonl"
        count = traced_report.write_merged_trace(path)
        assert count == len(traced_report.merged_trace().splitlines())
        assert path.read_text(encoding="utf-8") == traced_report.merged_trace()

    def test_outage_trace_names_the_failure_behind_each_degraded_probe(
        self, micro_config, trained_payload
    ):
        """A degraded reading says why: the service span records what the
        failed probe raised, identically at any worker count."""
        config = traced_loadgen(
            micro_config,
            rounds=8,
            faults=named_fault_plan("outage", 2, 8, DEFAULT_GAP_SECONDS),
        )
        report = Coordinator(config, payload=trained_payload).run(workers=1)
        spans = [json.loads(line) for line in report.merged_trace().splitlines()]
        degraded = [
            span["attributes"]
            for span in spans
            if span["name"] == "mdbs.probe.service"
            and span["attributes"].get("outcome") == "executed"
            and span["attributes"]["source"] != "observed"
        ]
        assert degraded
        assert all(a["observed_error"] == "SiteOutageError" for a in degraded)
        healthy = [
            span["attributes"]
            for span in spans
            if span["name"] == "mdbs.probe.service"
            and span["attributes"].get("source") == "observed"
        ]
        assert healthy and not any("observed_error" in a for a in healthy)
        pooled = Coordinator(config, payload=trained_payload).run(workers=2)
        assert pooled.merged_trace() == report.merged_trace()

    @pytest.mark.slow
    def test_merged_trace_is_byte_identical_across_worker_counts(
        self, micro_config, trained_payload, traced_report
    ):
        """THE tracing determinism contract: process-pool fan-out only
        changes concurrency, never a byte of the merged trace."""
        config = traced_loadgen(micro_config)
        pooled = Coordinator(config, payload=trained_payload).run(workers=2)
        assert pooled.merged_trace() == traced_report.merged_trace()
