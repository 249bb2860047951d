"""Span self-time arithmetic, the thread hop, and install/remove identity."""

from __future__ import annotations

import pytest

from bench.layers import WRAP_POINTS
from bench.tests import sample_layers
from bench.trace import Recorder, WrapPoint, install, remove

POINTS = [
    WrapPoint("bench.tests.sample_layers:Service.submit", "serving.submit"),
    WrapPoint("bench.tests.sample_layers:Service.handle", "mdbs.handle"),
    WrapPoint("bench.tests.sample_layers:leaf", "engine.leaf"),
]


def test_self_time_is_duration_minus_children_per_thread():
    recorder = Recorder()
    patches = install(recorder, POINTS)
    try:
        sample_layers.Service().submit(0.01)
    finally:
        remove(patches)
    stats = recorder.stats()
    submit, handle, leaf = (
        stats["serving.submit"], stats["mdbs.handle"], stats["engine.leaf"]
    )
    assert (submit.calls, handle.calls, leaf.calls) == (1, 1, 2)
    # handle's children are the two leaves: self = total - children, exactly.
    assert handle.self_s == pytest.approx(handle.total_s - leaf.total_s, abs=1e-9)
    assert leaf.self_s == pytest.approx(leaf.total_s)
    assert leaf.total_s >= 0.02
    # The hop: handle ran on the worker thread, so it is a root there and
    # submit (on the calling thread) keeps its whole duration as self time.
    assert submit.self_s == pytest.approx(submit.total_s)
    assert recorder.root_seconds(worker_threads=True) == pytest.approx(handle.total_s)
    assert recorder.root_seconds(worker_threads=False) == pytest.approx(submit.total_s)
    assert submit.total_s >= handle.total_s


def test_raw_spans_name_their_cause():
    recorder = Recorder()
    patches = install(recorder, POINTS)
    try:
        recorder.request = 7
        sample_layers.Service().submit(0.0)
    finally:
        remove(patches)
    spans = {span["name"]: span for span in recorder.raw_spans()}
    assert spans["mdbs.handle"]["parent"] == "request:7"
    assert spans["engine.leaf"]["parent"] == spans["mdbs.handle"]["id"]
    assert {span["request"] for span in spans.values()} == {7}
    assert all(span["end"] >= span["start"] for span in spans.values())


def test_hooks_can_rename_a_span_and_count():
    def after(recorder, args, result, frame):
        frame[0] = "engine.leaf_renamed"
        recorder.count("seconds", result)

    recorder = Recorder()
    patches = install(
        recorder, [WrapPoint("bench.tests.sample_layers:leaf", "engine.leaf", after=after)]
    )
    try:
        sample_layers.leaf(0.0)
    finally:
        remove(patches)
    assert list(recorder.stats()) == ["engine.leaf_renamed"]
    assert recorder.counters == {"seconds": 0.0}


def test_a_raising_call_still_closes_its_span():
    recorder = Recorder()
    patches = install(
        recorder, [WrapPoint("bench.tests.sample_layers:leaf", "engine.leaf")]
    )
    try:
        with pytest.raises(TypeError):
            sample_layers.leaf("not a number")
        sample_layers.leaf(0.0)
    finally:
        remove(patches)
    assert recorder.stats()["engine.leaf"].calls == 2
    assert recorder.root_seconds(worker_threads=False) == pytest.approx(
        recorder.stats()["engine.leaf"].total_s
    )


def _resolve(target: str):
    import importlib

    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


def test_install_then_remove_restores_the_identical_objects():
    before = {}
    for point in WRAP_POINTS:
        owner, attr = _resolve(point.target)
        before[point.target] = owner.__dict__[attr]
    import repro.core.fitting as fitting  # holds its own binding of fit_ols

    fit_ols = fitting.fit_ols
    recorder = Recorder()
    patches = install(recorder, WRAP_POINTS)
    try:
        for point in WRAP_POINTS:
            owner, attr = _resolve(point.target)
            assert owner.__dict__[attr] is not before[point.target], point.target
        assert fitting.fit_ols is not fit_ols  # rebound where it was imported by name
    finally:
        remove(patches)
    for point in WRAP_POINTS:
        owner, attr = _resolve(point.target)
        assert owner.__dict__[attr] is before[point.target], point.target
    assert fitting.fit_ols is fit_ols
    assert patches == []
    assert recorder.stats() == {}


def test_every_wrap_point_is_public_and_names_a_layer():
    from bench.spec import LAYERS

    for point in WRAP_POINTS:
        assert not any(part.startswith("_") for part in point.target.split(":")[1].split("."))
        assert point.span.partition(".")[0] in LAYERS
