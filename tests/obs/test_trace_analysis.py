"""Cross-process trace analytics: stage attribution, rankings, CLI.

Inputs are hand-built span dicts in the ``span_to_dict`` shape, so every
expected number is exact — no real serving run, no wall clock — except
:class:`TestSpansByName`'s end-to-end check on a real experiments trace.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.trace_analysis import (
    STAGES,
    group_traces,
    load_trace_file,
    render_slowest_table,
    render_span_summary,
    render_stage_breakdown,
    render_trace_report,
    render_trace_tree,
    slowest_traces,
    trace_root,
    trace_stage_seconds,
    trace_tree_lines,
)


def _span(
    name,
    span_id,
    parent_id=None,
    trace_id="t-1",
    start=0.0,
    duration=1.0,
    **attributes,
):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id,
        "start": start,
        "end": start + duration,
        "duration": duration,
        "attributes": attributes,
    }


def request_trace(trace_id="t-1", base_id=0, root_duration=10.0, slow=0.0):
    """One request's spans: root > plan/execute, probes nested.

    Both stages hide a probe, and the execute stage's probe has a nested
    agent-level probe — exactly the attribution subtlety the breakdown
    has to get right.
    """
    b = base_id
    return [
        _span(
            "serving.request",
            b + 1,
            trace_id=trace_id,
            duration=root_duration + slow,
            status="completed",
            query="q",
        ),
        _span(
            "serving.plan",
            b + 2,
            b + 1,
            trace_id,
            start=2.0,
            duration=3.0 + slow,
        ),
        _span(
            "mdbs.probe.service",
            b + 3,
            b + 2,
            trace_id,
            start=2.5,
            duration=1.0,
            outcome="executed",
        ),
        _span("serving.execute", b + 4, b + 1, trace_id, start=5.0, duration=4.0),
        _span(
            "mdbs.probe.service",
            b + 5,
            b + 4,
            trace_id,
            start=5.5,
            duration=0.5,
            outcome="executed",
        ),
        # Nested under the outer probe span: must NOT be double-counted.
        _span(
            "mdbs.probe",
            b + 6,
            b + 5,
            trace_id,
            start=5.6,
            duration=0.4,
            outcome="executed",
        ),
    ]


class TestStageAttribution:
    def test_probe_time_moves_out_of_its_enclosing_stage(self):
        totals = trace_stage_seconds(request_trace())
        # plan held a 1.0s probe: 3.0 raw - 1.0.
        assert totals["plan"] == pytest.approx(2.0)
        # execute held a 0.5s probe (outermost span only).
        assert totals["execute"] == pytest.approx(3.5)
        assert totals["probe"] == pytest.approx(1.5)
        # root 10.0 - (raw plan 3.0 + raw execute 4.0).
        assert totals["other"] == pytest.approx(3.0)
        assert sum(totals.values()) == pytest.approx(10.0)

    def test_nested_probe_spans_count_once(self):
        totals = trace_stage_seconds(request_trace())
        # The inner mdbs.probe (0.4s) is swallowed by its parent span.
        assert totals["probe"] == pytest.approx(1.5)

    def test_breakdown_sums_over_traces(self):
        groups = group_traces(
            request_trace("t-1", 0) + request_trace("t-2", 100)
        )
        rendered = render_stage_breakdown(groups)
        assert set(STAGES) <= {
            line.split()[0] for line in rendered.splitlines()[2:]
        }
        plan_row = next(
            line for line in rendered.splitlines() if line.startswith("plan")
        )
        assert "4.000000" in plan_row  # 2.0s per trace, two traces


class TestSlowest:
    def test_ranked_by_root_duration_then_trace_id(self):
        spans = (
            request_trace("t-b", 0, root_duration=10.0)
            + request_trace("t-a", 100, root_duration=10.0)
            + request_trace("t-slow", 200, root_duration=10.0, slow=5.0)
        )
        ranked = slowest_traces(group_traces(spans), n=3)
        # Slowest first; equal durations break ties on trace id.
        assert [trace_id for trace_id, _ in ranked] == ["t-slow", "t-a", "t-b"]

    def test_table_carries_spans_status_query(self):
        table = render_slowest_table(group_traces(request_trace()), n=5)
        row = table.splitlines()[2]
        assert row.startswith("t-1")
        assert " 6 " in row  # span count
        assert "completed" in row

    def test_empty_input(self):
        assert render_slowest_table({}, n=5) == "(no traces)"


class TestTreeRendering:
    def test_indentation_follows_parentage(self):
        lines = trace_tree_lines(request_trace())
        assert lines[0].startswith("serving.request")
        assert lines[1].startswith("  serving.plan")
        probe_lines = [l for l in lines if "mdbs.probe.service" in l]
        assert all(l.startswith("    mdbs.probe.service") for l in probe_lines)
        assert any(l.startswith("      mdbs.probe ") for l in lines)

    def test_attributes_render_sorted(self):
        (line,) = trace_tree_lines(
            [_span("s", 1, zebra=1, alpha=2, duration=0.5)]
        )
        assert "[alpha=2 zebra=1]" in line

    def test_missing_trace(self):
        assert "not found" in render_trace_tree({}, "t-missing")

    def test_root_prefers_the_named_request_span(self):
        spans = request_trace()
        assert trace_root(spans)["name"] == "serving.request"
        # Without the named root, the earliest orphan wins.
        headless = [s for s in spans if s["name"] != "serving.request"]
        assert trace_root(headless)["name"] == "serving.plan"


class TestCli:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        spans = request_trace("t-1", 0) + request_trace(
            "t-2", 100, slow=3.0
        )
        path.write_text(
            "".join(json.dumps(span) + "\n" for span in spans),
            encoding="utf-8",
        )
        return path

    def test_load_skips_blank_lines(self, trace_file):
        raw = trace_file.read_text()
        trace_file.write_text("\n" + raw + "\n\n")
        assert len(load_trace_file(trace_file)) == 12

    def test_report_contains_all_sections(self, trace_file):
        report = render_trace_report(load_trace_file(trace_file), slowest=5)
        assert "traces: 2" in report
        assert "critical path" in report
        assert "Slowest 5 traces" in report
        # Default tree expansion: the slowest trace.
        assert "trace t-2" in report

    def test_trace_subcommand_end_to_end(self, trace_file, capsys):
        assert obs_main(["trace", str(trace_file), "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert "Slowest 2 traces" in out
        assert "serving.request" in out

    def test_tree_flag_picks_the_trace(self, trace_file, capsys):
        assert obs_main(["trace", str(trace_file), "--tree", "t-1"]) == 0
        assert "trace t-1" in capsys.readouterr().out

    def test_bad_slowest_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            obs_main(["trace", str(trace_file), "--slowest", "0"])


#: The request sections of the report on ``TestCli``'s two-trace file,
#: exactly as the report printed them before it gained the spans-by-name
#: section; they must follow that section unchanged.
REQUEST_SECTIONS = """\
traces: 2

Per-stage latency attribution (critical path)
stage              seconds    share
-----------------------------------
plan              7.000000    30.4%
probe             3.000000    13.0%
execute           7.000000    30.4%
other             6.000000    26.1%
total            23.000000   100.0%

Slowest 5 traces
trace       seconds  spans  status     query
--------------------------------------------
t-2       13.000000      6  completed  q
t-1       10.000000      6  completed  q

trace t-2
serving.request  13.000000s  [query=q status=completed]
  serving.plan  6.000000s
    mdbs.probe.service  1.000000s  [outcome=executed]
  serving.execute  4.000000s
    mdbs.probe.service  0.500000s  [outcome=executed]
      mdbs.probe  0.400000s  [outcome=executed]"""

REPO_ROOT = Path(__file__).resolve().parents[2]


def _section_counts(report: str) -> dict[str, int]:
    """``{span name: count}`` from the report's spans-by-name section."""
    lines = report.split("\n\ntraces: ")[0].splitlines()
    assert lines[0].startswith("Spans by name (")
    return {row.split()[0]: int(row.split()[1]) for row in lines[3:]}


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
    )


class TestSpansByName:
    def test_request_sections_follow_unchanged(self):
        spans = request_trace("t-1", 0) + request_trace("t-2", 100, slow=3.0)
        assert render_trace_report(spans, slowest=5) == (
            f"Spans by name (12 spans)\n{render_span_summary(spans)}\n\n"
            + REQUEST_SECTIONS
        )

    def test_rows_sorted_by_name_with_exact_aggregates(self):
        spans = request_trace("t-1", 0) + request_trace("t-2", 100, slow=3.0)
        rows = render_span_summary(spans).splitlines()[2:]
        assert [row.split()[0] for row in rows] == sorted(
            {span["name"] for span in spans}
        )
        plan = next(row.split() for row in rows if row.startswith("serving.plan"))
        # Durations 3.0 and 6.0: count, total, mean, p50, p95.
        assert plan[1:] == ["2", "9.0000", "4.500000", "4.500000", "5.850000"]

    def test_spans_outside_requests_are_counted(self):
        spans = request_trace() + [
            _span("engine.execute", 50 + i, trace_id=None, duration=0.25)
            for i in range(3)
        ]
        counts = _section_counts(render_trace_report(spans))
        assert counts["engine.execute"] == 3
        assert sum(counts.values()) == len(spans)

    @pytest.mark.slow
    def test_trace_without_requests_end_to_end(self, tmp_path):
        """A derivation-only run writes spans but no request roots; the
        report still covers every one of them."""
        path = tmp_path / "table4.jsonl"
        run = _run(
            ["repro.experiments", "--preset", "tiny", "--only", "table4",
             "--trace-out", str(path)]
        )
        assert run.returncode == 0, run.stderr
        report = _run(["repro.obs", "trace", str(path)])
        assert report.returncode == 0, report.stderr
        spans = load_trace_file(path)
        assert spans and all(span["trace_id"] is None for span in spans)
        counts = _section_counts(report.stdout)
        assert sum(counts.values()) == len(spans)
        assert "engine.execute" in counts
        assert "\n\ntraces: 0\n" in report.stdout
