"""Unit tests for the span tracer: nesting, attributes, trace roots, sampling."""

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
        assert obs.current_trace_id() is None
        with tracer.span("root", trace_id="t-5"):
            assert obs.current_trace_id() == "t-5"
        assert obs.current_trace_id() is None


class TestSuppression:
    def test_suppress_silences_spans_and_records_nothing(self, tracer):
        token = tracer.suppress_begin()
        with obs.span("invisible") as sp:
            pass
        tracer.suppress_end(token)
        assert sp is obs.NOOP_SPAN
        assert tracer.finished() == []

    def test_suppress_carries_the_trace_id_for_exemplar_links(self, tracer):
        token = tracer.suppress_begin("t-unsampled")
        assert obs.current_trace_id() == "t-unsampled"
        tracer.suppress_end(token)
        assert obs.current_trace_id() is None

    def test_suppress_begin_end_token_restores_outer_state(self, tracer):
        outer = tracer.suppress_begin("outer-id")
        inner = tracer.suppress_begin("inner-id")
        assert tracer.active_trace_id() == "inner-id"
        tracer.suppress_end(inner)
        assert tracer.active_trace_id() == "outer-id"
        tracer.suppress_end(outer)
        assert tracer.active_trace_id() is None
        with obs.span("after") as sp:
            assert sp.recording  # suppression fully unwound

    def test_noop_tracer_suppression_is_harmless(self):
        noop = NoopTracer()
        token = noop.suppress_begin("anything")
        assert noop.active_trace_id() is None
        noop.suppress_end(token)


class TestTraceBookkeeping:
    def _record_trace(self, tracer, trace_id, spans=3):
        with tracer.span("root", trace_id=trace_id):
            for i in range(spans - 1):
                with obs.span(f"child-{i}"):
                    pass

    def test_span_count_is_per_trace(self, tracer):
        self._record_trace(tracer, "t-a", spans=3)
        self._record_trace(tracer, "t-b", spans=2)
        assert tracer.span_count("t-a") == 3
        assert tracer.span_count("t-b") == 2
        assert tracer.span_count("t-missing") == 0

    def test_drop_trace_removes_only_that_trace(self, tracer):
        self._record_trace(tracer, "t-a")
        self._record_trace(tracer, "t-b")
        assert tracer.drop_trace("t-a") == 1
        assert tracer.drop_trace("t-a") == 0  # idempotent
        assert tracer.span_count("t-a") == 0
        assert tracer.trace("t-a") == []
        assert {s.trace_id for s in tracer.finished()} == {"t-b"}

    def test_lazy_drops_survive_compaction(self, tracer):
        keep_id = "t-keep"
        self._record_trace(tracer, keep_id, spans=2)
        for i in range(Tracer.DROP_COMPACT_THRESHOLD + 5):
            self._record_trace(tracer, f"t-drop-{i}", spans=1)
            tracer.drop_trace(f"t-drop-{i}")
        assert [s.trace_id for s in tracer.finished()] == [keep_id, keep_id]
        assert tracer.span_count(keep_id) == 2

    def test_local_ids_restart_per_tracer(self):
        def ids():
            t = Tracer(local_ids=True)
            with t.span("a", trace_id="x"):
                with t.span("b"):
                    pass
            return [s.span_id for s in t.finished()]

        assert ids() == ids()


class TestTraceSampler:
    def test_verdict_is_a_pure_function_of_seed_and_id(self):
        from repro.obs.tracing import TraceSampler

        ids = [f"s000-q{i:06d}" for i in range(256)]
        first = {i for i in ids if TraceSampler(rate=0.25, seed=7).keep(i)}
        second = {i for i in ids if TraceSampler(rate=0.25, seed=7).keep(i)}
        assert first == second
        assert 0 < len(first) < len(ids)
        # A different seed samples a different subset.
        other = {i for i in ids if TraceSampler(rate=0.25, seed=8).keep(i)}
        assert other != first

    def test_rate_edges_and_validation(self):
        from repro.obs.tracing import TraceSampler

        assert TraceSampler(rate=1.0).keep("anything")
        assert not TraceSampler(rate=0.0).keep("anything")
        with pytest.raises(ValueError):
            TraceSampler(rate=1.5)

    def test_resolve_keeps_or_drops_and_counts(self, tracer, fresh_registry):
        from repro.obs.tracing import TraceSampler

        sampler = TraceSampler(rate=0.0, seed=1)
        with tracer.span("root", trace_id="t-gone"):
            pass
        assert not sampler.resolve(tracer, "t-gone")
        assert tracer.trace("t-gone") == []
        assert sampler.dropped == 1 and sampler.sampled == 0
        assert fresh_registry.counter_value("obs.trace.dropped") == 1.0

        with tracer.span("root", trace_id="t-forced"):
            pass
        assert sampler.resolve(tracer, "t-forced", force=True)
        assert len(tracer.trace("t-forced")) == 1
        assert sampler.sampled == 1 and sampler.forced == 1
        assert fresh_registry.counter_value("obs.trace.sampled") == 1.0

    def test_resolve_rebinds_metrics_after_registry_swap(self, tracer):
        from repro.obs.tracing import TraceSampler

        sampler = TraceSampler(rate=1.0)
        for registry in (obs.MetricsRegistry(), obs.MetricsRegistry()):
            previous = obs.set_registry(registry)
            try:
                sampler.resolve(tracer, "t-x")
                assert registry.counter_value("obs.trace.sampled") == 1.0
            finally:
                obs.set_registry(previous)
