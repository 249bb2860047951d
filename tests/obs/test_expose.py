"""The obs snapshot, its dashboard, and the ``--snapshot`` CLI."""

import json

import pytest

from repro import obs
from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.mdbs.registry import CostModelRegistry, ModelProvenance
from repro.obs.__main__ import main as obs_main
from repro.obs.quality import AccuracyTracker, DriftEvent

from ..core.synthetic import stepped_sample


def make_model(label="G1"):
    X, y, probing = stepped_sample(true_states=2, n=100, seed=1)
    fit = fit_qualitative(X, y, probing, uniform_partition(0, 1, 2), ("x",))
    return MultiStateCostModel.from_fit(fit, label, "unary", "iupma")


def populated_registry() -> obs.MetricsRegistry:
    registry = obs.MetricsRegistry()
    registry.inc("mdbs.global_queries", 5)
    registry.set_gauge("mdbs.probing.cache_size", 2)
    for value in (0.1, 0.2, 0.3, 0.4):
        registry.observe("mdbs.step_seconds", value)
    return registry


def small_payload() -> dict:
    tracker = AccuracyTracker(export=False)
    tracker.record("A", "G1", 0, predicted=1.0, actual=1.0)
    tracker.record_drift_event(
        DriftEvent("A", "G1", "good_band", 9.0, "went bad")
    )
    return obs.snapshot_payload(registry=populated_registry(), accuracy=tracker)


class TestSnapshots:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "snap.json"
        tracker = AccuracyTracker(export=False)
        tracker.record("A", "G1", 0, predicted=1.0, actual=2.0)
        written = obs.write_snapshot(
            path, registry=populated_registry(), accuracy=tracker
        )
        assert obs.read_snapshot(path) == json.loads(json.dumps(written))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"snapshot_version": 999}))
        with pytest.raises(ValueError, match="version"):
            obs.read_snapshot(path)

    def test_model_rows_carry_trigger(self):
        registry = CostModelRegistry()
        model = make_model()
        registry.publish(
            "A",
            model,
            ModelProvenance.from_model(model, trigger="drift[x] ..."),
        )
        payload = obs.snapshot_payload(
            registry=obs.MetricsRegistry(),
            accuracy=AccuracyTracker(export=False),
            model_registry=registry,
        )
        (row,) = payload["models"]
        assert row["site"] == "A" and row["trigger"] == "drift[x] ..."


class TestDashboard:
    def test_sections_present(self):
        text = obs.render_dashboard(small_payload())
        assert "global queries=5" in text
        assert "A/G1/s0" in text
        assert "drift[good_band] A/G1" in text
        assert "(no model registry in snapshot)" in text

    def test_failed_requests_show_on_the_totals_line(self):
        """A run with failed requests reads differently from one without."""
        registry = populated_registry()

        def totals():
            payload = obs.snapshot_payload(
                registry=registry, accuracy=AccuracyTracker(export=False)
            )
            return obs.render_dashboard(payload).splitlines()[1]

        assert "failed requests" not in totals()
        registry.inc("serving.failed", 2)
        assert "failed requests=2" in totals()

    def test_empty_payload(self):
        text = obs.render_dashboard(
            obs.snapshot_payload(
                registry=obs.MetricsRegistry(),
                accuracy=AccuracyTracker(export=False),
            )
        )
        assert "(no serving activity recorded)" in text
        assert "(no accuracy samples recorded)" in text
        assert "(none)" in text


class TestCli:
    def _snapshot_file(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(small_payload()))
        return str(path)

    def test_dashboard_format(self, tmp_path, capsys):
        assert obs_main(["--snapshot", self._snapshot_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs dashboard" in out and "A/G1/s0" in out

    def test_missing_snapshot_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["--snapshot", str(tmp_path / "absent.json")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", [["--format", "prom"], ["--watch", "2"]])
    def test_removed_flags_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["--snapshot", self._snapshot_file(tmp_path), *flag])
        assert excinfo.value.code == 2
