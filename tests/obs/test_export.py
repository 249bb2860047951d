"""Unit tests for the span-file export and its per-span-name summary."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.trace_analysis import (
    load_trace_file,
    render_span_summary,
    span_to_dict,
    to_jsonl,
    write_jsonl,
)
from repro.obs.tracing import Span


def record_small_trace(tracer):
    with obs.span("outer", site="A"):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    return tracer.finished()


class TestJsonl:
    def test_round_trips_through_json(self, tracer):
        spans = record_small_trace(tracer)
        lines = to_jsonl(spans).strip().splitlines()
        assert len(lines) == 3
        decoded = [json.loads(line) for line in lines]
        for entry in decoded:
            assert set(entry) == {
                "name",
                "span_id",
                "parent_id",
                "trace_id",
                "start",
                "end",
                "duration",
                "attributes",
            }
            assert entry["end"] >= entry["start"]

    def test_parent_links_resolve(self, tracer):
        spans = record_small_trace(tracer)
        decoded = [json.loads(line) for line in to_jsonl(spans).splitlines()]
        ids = {e["span_id"] for e in decoded}
        for entry in decoded:
            assert entry["parent_id"] is None or entry["parent_id"] in ids
        roots = [e for e in decoded if e["parent_id"] is None]
        assert [r["name"] for r in roots] == ["outer"]
        assert roots[0]["attributes"] == {"site": "A"}

    def test_write_jsonl_returns_span_count(self, tracer, tmp_path):
        spans = record_small_trace(tracer)
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(spans, path) == 3
        assert len(path.read_text().splitlines()) == 3

    def test_accepts_tracer_directly(self, tracer):
        record_small_trace(tracer)
        assert len(to_jsonl(tracer).splitlines()) == 3

    def test_non_json_attribute_values_stringified(self, tracer):
        with obs.span("s", obj=object()):
            pass
        (line,) = to_jsonl(tracer).splitlines()
        assert "object object" in json.loads(line)["attributes"]["obj"]


#: JSON-representable attribute values (what instrumented code attaches).
_attr_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)

_spans = st.builds(
    Span,
    name=st.text(min_size=1, max_size=30),
    attributes=st.dictionaries(
        st.text(min_size=1, max_size=15), _attr_values, max_size=4
    ),
    span_id=st.integers(min_value=1, max_value=2**31),
    parent_id=st.one_of(st.none(), st.integers(min_value=1, max_value=2**31)),
    trace_id=st.one_of(st.none(), st.text(max_size=24)),
    start=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    end=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    ),
)


class TestJsonlRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(spans=st.lists(_spans, max_size=8))
    def test_export_import_round_trip(self, spans, tmp_path_factory):
        """write_jsonl -> load_trace_file preserves every span field exactly
        (the contract cross-process trace merging rests on)."""
        path = tmp_path_factory.mktemp("trace") / "roundtrip.jsonl"
        assert write_jsonl(spans, path) == len(spans)
        assert load_trace_file(path) == [span_to_dict(s) for s in spans]


class TestSummaryTable:
    def test_aggregates_per_name(self, tracer):
        spans = [span_to_dict(span) for span in record_small_trace(tracer)]
        table = render_span_summary(spans)
        assert "span" in table and "count" in table and "p95_s" in table
        inner_row = next(
            line for line in table.splitlines() if line.startswith("inner")
        )
        assert inner_row.split()[1] == "2"
        outer_row = next(
            line for line in table.splitlines() if line.startswith("outer")
        )
        assert outer_row.split()[1] == "1"

    def test_empty_trace(self):
        assert render_span_summary([]) == "(no spans recorded)"

