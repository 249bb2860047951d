"""The name validator and the committed BENCHMARK.json."""

from __future__ import annotations

import dataclasses
import json

import pytest

from bench import ROOT, spec


def test_the_spec_is_valid():
    spec.validate()
    assert len(spec.WORKLOADS) == 5
    assert len(spec.END_TO_END) == 12  # the issue's eleven + ops_per_refloop


def test_committed_benchmark_json_matches_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len(json.dumps(committed)) < 64 * 1024


def test_every_per_layer_metric_names_a_layer():
    for metric in spec.driver_per_layer():
        assert metric.layer in spec.LAYERS + (spec.DIAGNOSTIC,)


@pytest.mark.parametrize(
    "field, value",
    [("name", "bad name"), ("name", "x" * 65), ("unit", "m s"), ("better", "up")],
)
def test_validate_rejects_a_bad_end_to_end_metric(monkeypatch, field, value):
    broken = dataclasses.replace(spec.END_TO_END[1], **{field: value})
    monkeypatch.setattr(spec, "END_TO_END", (spec.END_TO_END[0], broken))
    with pytest.raises(ValueError):
        spec.validate()


def test_validate_rejects_counts_bounds_layers_and_duplicates(monkeypatch):
    monkeypatch.setattr(spec, "WORKLOADS", spec.WORKLOADS[:1])
    with pytest.raises(ValueError, match="2 to 8 workloads"):
        spec.validate()
    monkeypatch.undo()

    monkeypatch.setattr(spec, "END_TO_END", spec.END_TO_END * 2)
    with pytest.raises(ValueError, match="end-to-end"):
        spec.validate()
    monkeypatch.undo()

    monkeypatch.setattr(spec, "PER_LAYER", spec.PER_LAYER * 3)
    with pytest.raises(ValueError, match="per-layer"):
        spec.validate()
    monkeypatch.undo()

    wide = dataclasses.replace(spec.END_TO_END[0], bound=0.3)
    monkeypatch.setattr(spec, "END_TO_END", (wide,))
    with pytest.raises(ValueError, match="driver bound"):
        spec.validate()
    monkeypatch.undo()

    stray = dataclasses.replace(spec.PER_LAYER[0], name="experiments.render_ms")
    monkeypatch.setattr(spec, "PER_LAYER", (stray,))
    with pytest.raises(ValueError, match="names no measured layer"):
        spec.validate()
    monkeypatch.undo()

    monkeypatch.setattr(spec, "PER_LAYER", (spec.PER_LAYER[0], spec.PER_LAYER[0]))
    with pytest.raises(ValueError, match="used twice"):
        spec.validate()


def test_readme_explains_every_workload_and_metric():
    readme = (ROOT / "bench" / "README.md").read_text(encoding="utf-8")
    for item in spec.WORKLOADS + spec.END_TO_END + spec.PER_LAYER:
        assert f"`{item.name}`" in readme, item.name
