"""Cross-process trace merging: byte-identity, shapes, analytics feed.

The merged trace is the loadgen side of the tracing acceptance
criterion: shard workers sample and export spans locally, and the
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
        trace_sample_rate=1.0,
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
        stats = traced_report.trace_stats()
        assert stats["spans"] == len(lines) > 0
        assert stats["sampled"] > 0
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
        """Every merged trace is one connected tree the stage-breakdown
        tooling can attribute — the cross-process postmortem contract."""
        spans = [
            json.loads(line)
            for line in traced_report.merged_trace().splitlines()
        ]
        groups = group_traces(spans)
        assert len(groups) == traced_report.trace_stats()["sampled"]
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
        assert count == traced_report.trace_stats()["spans"]
        assert path.read_text(encoding="utf-8") == traced_report.merged_trace()

    def test_fractional_rate_keeps_a_deterministic_subset(
        self, micro_config, trained_payload
    ):
        # Enough rounds that the exemplar slots stabilize and later
        # traces stop being force-kept — only then can drops appear.
        full_config = traced_loadgen(micro_config, rounds=10)
        sampled_config = traced_loadgen(
            micro_config, rounds=10, trace_sample_rate=0.0625
        )
        full = Coordinator(full_config, payload=trained_payload).run(workers=1)
        report = Coordinator(sampled_config, payload=trained_payload).run(
            workers=1
        )
        stats, full_stats = report.trace_stats(), full.trace_stats()
        assert 0 < stats["sampled"] < full_stats["sampled"]
        assert stats["dropped"] > 0
        assert stats["sampled"] + stats["dropped"] == full_stats["sampled"]
        sampled_ids = {
            json.loads(line)["trace_id"]
            for line in report.merged_trace().splitlines()
        }
        full_ids = {
            json.loads(line)["trace_id"]
            for line in full.merged_trace().splitlines()
        }
        # The head-sampled keep set is a subset of the rate-1.0 keep set
        # (same seed, same ids, lower threshold) — plus force-keeps,
        # which retain full span trees of their own.
        assert sampled_ids < full_ids
        # Every exemplar trace id a shard's drift events embed resolves
        # to spans the sampled merge retained: the postmortem handle
        # never dangles, whatever the head-sampling rate.
        exemplars = {
            trace_id
            for shard in report.shard_reports
            for event in shard.drift_events
            for trace_id in event.get("stats", {}).get("exemplar_traces", [])
        }
        assert exemplars and exemplars <= sampled_ids

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
        assert pooled.trace_stats() == traced_report.trace_stats()
