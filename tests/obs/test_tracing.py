"""Unit tests for the span tracer: nesting, attributes, trace roots."""

import pytest

from repro import obs
from repro.obs.tracing import NOOP_SPAN, NoopTracer, Tracer


class TestNoopDefault:
    def test_default_tracer_is_disabled(self):
        assert isinstance(obs.get_tracer(), NoopTracer)
        assert not obs.enabled()

    def test_span_is_shared_noop_singleton(self):
        with obs.span("anything", key="value") as sp:
            assert sp is NOOP_SPAN
            assert not sp.recording
            sp.set_attribute("x", 1)  # silently ignored
            sp.set_attributes(y=2)
        assert obs.get_tracer().finished() == []

    def test_noop_swallows_nothing(self):
        with pytest.raises(RuntimeError):
            with obs.span("x"):
                raise RuntimeError("boom")


class TestEnableDisable:
    def test_enable_installs_recording_tracer(self):
        try:
            tracer = obs.enable()
            assert obs.get_tracer() is tracer
            assert obs.enabled()
            with obs.span("unit"):
                pass
            assert [s.name for s in tracer.finished()] == ["unit"]
        finally:
            obs.disable()
        assert not obs.enabled()

    def test_recording_restores_previous_tracer(self):
        before = obs.get_tracer()
        with obs.recording() as tracer:
            assert obs.get_tracer() is tracer
        assert obs.get_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:
            assert obs.get_tracer() is tracer
        finally:
            obs.set_tracer(previous)


class TestSpanRecording:
    def test_nested_parentage(self, tracer):
        with obs.span("root") as root:
            with obs.span("child") as child:
                with obs.span("grandchild") as grand:
                    pass
            with obs.span("sibling") as sibling:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert sibling.parent_id == root.span_id
        # Finish order is innermost-first.
        assert [s.name for s in tracer.finished()] == [
            "grandchild",
            "child",
            "sibling",
            "root",
        ]

    def test_attributes_at_creation_and_later(self, tracer):
        with obs.span("s", site="A") as sp:
            assert sp.recording
            sp.set_attribute("rows", 10)
            sp.set_attributes(plan="seq_scan", pages=3)
        (span,) = tracer.finished()
        assert span.attributes == {
            "site": "A",
            "rows": 10,
            "plan": "seq_scan",
            "pages": 3,
        }

    def test_duration_is_positive_after_exit(self, tracer):
        with obs.span("s") as sp:
            assert sp.duration == 0.0  # still open
        assert sp.end is not None
        assert sp.end >= sp.start
        assert sp.duration >= 0.0

    def test_exception_marks_span_and_still_finishes(self, tracer):
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.finished()
        assert span.attributes["error"] == "ValueError"
        assert span.end is not None
        # The stack is clean: a new span is a root, not a child.
        with obs.span("after") as after:
            pass
        assert after.parent_id is None

    def test_current_tracks_innermost_open_span(self, tracer):
        assert tracer.current() is None
        with obs.span("outer") as outer:
            assert tracer.current() is outer
            with obs.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_reset_drops_finished_spans(self, tracer):
        with obs.span("s"):
            pass
        tracer.reset()
        assert tracer.finished() == []

    def test_span_ids_are_unique(self, tracer):
        for _ in range(50):
            with obs.span("s"):
                pass
        ids = [s.span_id for s in tracer.finished()]
        assert len(set(ids)) == len(ids)


class TestRequestScopedSpans:
    def test_trace_id_inherited_from_innermost_open_span(self, tracer):
        with tracer.span("root", trace_id="t-3"):
            with obs.span("child") as child:
                pass
        assert child.trace_id == "t-3"

    def test_explicit_trace_id_starts_an_anchored_root(self, tracer):
        with obs.span("outer"):
            with tracer.span("root", trace_id="t-4") as inner:
                pass
        assert inner.parent_id is None  # not re-parented under "outer"
        assert inner.trace_id == "t-4"

    def test_active_trace_id_tracks_the_open_span(self, tracer):
        assert tracer.current() is None
        with tracer.span("root", trace_id="t-5"):
            with obs.span("child"):
                assert tracer.current().trace_id == "t-5"
        assert tracer.current() is None


class TestTraceBookkeeping:
    def test_local_ids_restart_per_tracer(self):
        def ids():
            t = Tracer(local_ids=True)
            with t.span("a", trace_id="x"):
                with t.span("b"):
                    pass
            return [s.span_id for s in t.finished()]

        assert ids() == ids()
