"""Model-quality telemetry: windows, the tracker, and the drift rules
that read them."""

import pytest

from repro import obs
from repro.core import validation
from repro.core.builder import CostModelBuilder
from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.mdbs.lifecycle import DriftPolicy, ModelLifecycle, drift_event
from repro.mdbs.registry import CostModelRegistry
from repro.obs import quality
from repro.obs.quality import (
    AccuracySample,
    AccuracyTracker,
    AccuracyWindow,
    DriftEvent,
    accuracy_table,
)
from repro.workload import make_site

from ..core.synthetic import stepped_sample


class FakeStates:
    """Duck-typed stand-in for ContentionStates in drift checks."""

    def __init__(self, cmin: float, cmax: float) -> None:
        self.cmin = cmin
        self.cmax = cmax


def test_band_constants_pin_the_offline_validator():
    """quality restates §5 band thresholds; they must match core.validation."""
    assert quality.VERY_GOOD_RELATIVE_ERROR == validation.VERY_GOOD_RELATIVE_ERROR
    assert quality.GOOD_FACTOR == validation.GOOD_FACTOR


class TestAccuracySample:
    def test_bands_match_offline_validator(self):
        for predicted, actual in [
            (1.0, 1.0), (1.25, 1.0), (1.35, 1.0), (1.9, 1.0),
            (2.5, 1.0), (0.4, 1.0), (0.75, 1.0),
        ]:
            sample = AccuracySample.make(predicted, actual, at_time=0.0)
            assert sample.very_good == validation.is_very_good(predicted, actual)
            assert sample.good == validation.is_good(predicted, actual)

    def test_every_field_matches_offline_validator_on_edge_inputs(self):
        values = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1.3, 1e-300, 1e300,
                  float("inf"), 3, 7]
        for predicted in values:
            for actual in values:
                sample = AccuracySample.make(predicted, actual, at_time=2)
                assert sample[:3] == (float(predicted), float(actual), 2.0)
                assert all(type(v) is float for v in sample[:5])
                rel = validation.relative_error(predicted, actual)
                signed = rel if actual == 0.0 else (predicted - actual) / abs(actual)
                # repr: inf/inf is nan on both sides, and nan != nan.
                assert repr(sample.relative_error) == repr(rel)
                assert repr(sample.signed_error) == repr(signed)
                assert sample.very_good is validation.is_very_good(predicted, actual)
                assert sample.good is validation.is_good(predicted, actual)

    def test_zero_actual(self):
        perfect = AccuracySample.make(0.0, 0.0, at_time=0.0)
        assert perfect.relative_error == 0.0 and perfect.good
        miss = AccuracySample.make(1.0, 0.0, at_time=0.0)
        assert miss.relative_error == float("inf") and not miss.good

    def test_signed_error_direction(self):
        assert AccuracySample.make(0.5, 1.0, at_time=0.0).signed_error < 0
        assert AccuracySample.make(2.0, 1.0, at_time=0.0).signed_error > 0


class TestAccuracyWindow:
    def test_stats_match_recomputation_after_eviction(self):
        window = AccuracyWindow(window_size=5)
        pairs = [(1.0, 1.0), (3.0, 1.0), (1.1, 1.0), (0.2, 1.0),
                 (1.0, 2.5), (2.0, 2.0), (0.9, 1.0), (5.0, 1.0)]
        for predicted, actual in pairs:
            window.record(predicted, actual)
        assert len(window) == 5
        kept = [AccuracySample.make(p, a, 0.0) for p, a in pairs[-5:]]
        stats = window.stats()
        assert stats.count == 5
        assert stats.pct_good == pytest.approx(
            100.0 * sum(s.good for s in kept) / 5
        )
        assert stats.mean_relative_error == pytest.approx(
            sum(s.relative_error for s in kept) / 5
        )
        assert stats.bias == pytest.approx(sum(s.signed_error for s in kept) / 5)

    def test_recent_stats_sees_only_the_tail(self):
        window = AccuracyWindow(window_size=16)
        for _ in range(8):
            window.record(1.0, 1.0)  # perfect
        for _ in range(4):
            window.record(10.0, 1.0)  # terrible
        assert window.stats().pct_good == pytest.approx(100.0 * 8 / 12)
        assert window.recent_stats(4).pct_good == 0.0
        assert window.recent_stats(100).count == 12

    def test_empty_and_validation(self):
        window = AccuracyWindow()
        assert window.stats().count == 0
        with pytest.raises(ValueError):
            AccuracyWindow(window_size=0)
        with pytest.raises(ValueError):
            window.recent_stats(0)


def class_keys(tracker):
    """The (site, class) pairs holding windows, sorted."""
    return sorted({key[:2] for key in tracker.keys()})


class TestAccuracyTracker:
    def test_state_and_class_windows(self):
        tracker = AccuracyTracker(export=False)
        tracker.record("A", "G1", 0, predicted=1.0, actual=1.0)
        tracker.record("A", "G1", 2, predicted=9.0, actual=1.0)
        assert tracker.keys() == [("A", "G1", 0), ("A", "G1", 2)]
        assert class_keys(tracker) == [("A", "G1")]
        assert tracker.stats("A", "G1", 0).pct_good == 100.0
        assert tracker.stats("A", "G1", 2).pct_good == 0.0
        assert tracker.stats("A", "G1").count == 2
        assert tracker.sample_count() == 2

    def test_unknown_key_is_empty(self):
        tracker = AccuracyTracker(export=False)
        assert tracker.stats("nowhere", "G9").count == 0
        assert tracker.recent_stats("nowhere", "G9", 4).count == 0
        assert tracker.probe_readings("nowhere") == []

    def test_export_feeds_global_registry(self, fresh_registry):
        """Recording exports one name, the dashboard's samples total;
        the windows themselves stay on the tracker."""
        tracker = AccuracyTracker()
        tracker.record("A", "G1", 0, predicted=1.0, actual=1.0)
        tracker.record("A", "G1", 0, predicted=9.0, actual=1.0)
        assert fresh_registry.counter_value("mdbs.accuracy.samples") == 2
        assert fresh_registry.names() == ["mdbs.accuracy.samples"]
        assert tracker.stats("A", "G1").pct_good == 50.0

    def test_export_false_stays_private(self, fresh_registry):
        tracker = AccuracyTracker(export=False)
        tracker.record("A", "G1", 0, predicted=1.0, actual=1.0)
        assert fresh_registry.names() == []

    def test_probe_window_bounded(self):
        tracker = AccuracyTracker(export=False, probe_window_size=3)
        for i in range(5):
            tracker.record_probe("A", float(i), at_time=float(i))
        readings = tracker.probe_readings("A")
        assert [cost for cost, _ in readings] == [2.0, 3.0, 4.0]

    def test_reset_scopes(self):
        tracker = AccuracyTracker(export=False)
        for site in ("A", "B"):
            tracker.record(site, "G1", 0, predicted=1.0, actual=1.0)
            tracker.record(site, "G3", 0, predicted=1.0, actual=1.0)
            tracker.record_probe(site, 0.5)
        tracker.reset("A", "G1")
        assert ("A", "G1") not in class_keys(tracker)
        assert ("A", "G3") in class_keys(tracker)
        assert tracker.probe_readings("A") == []  # site probes re-anchor
        assert tracker.probe_readings("B") != []
        tracker.reset("B")
        assert class_keys(tracker) == [("A", "G3")]
        tracker.reset()
        assert class_keys(tracker) == []

    def test_snapshot_round_trips_through_table(self):
        tracker = AccuracyTracker(export=False)
        tracker.record("A", "G1", 1, predicted=1.0, actual=1.0)
        tracker.record_probe("A", 0.4)
        event = DriftEvent("A", "G1", "bias", 9.0, "detail")
        tracker.record_drift_event(event)
        snapshot = tracker.snapshot()
        states = {(r["site"], r["class"], r["state"]) for r in snapshot["rows"]}
        assert states == {("A", "G1", 1), ("A", "G1", None)}
        assert snapshot["probes"]["A"]["n"] == 1
        assert snapshot["drift_events"] == [event.to_dict()]
        assert accuracy_table(snapshot) == accuracy_table(tracker)

    def test_global_tracker_swap(self):
        mine = AccuracyTracker(export=False)
        previous = obs.set_tracker(mine)
        try:
            assert obs.get_tracker() is mine
        finally:
            obs.set_tracker(previous)


class TestAccuracyTable:
    def test_sorted_with_class_aggregate_last(self):
        tracker = AccuracyTracker(export=False)
        tracker.record("B", "G1", 1, predicted=1.0, actual=1.0)
        tracker.record("A", "G3", 2, predicted=1.0, actual=1.0)
        tracker.record("A", "G3", 0, predicted=1.0, actual=1.0)
        lines = accuracy_table(tracker).splitlines()[2:]
        keys = [line.split()[0] for line in lines]
        assert keys == ["A/G3/s0", "A/G3/s2", "A/G3/*", "B/G1/s1", "B/G1/*"]

    def test_empty(self):
        assert "no accuracy samples" in accuracy_table(AccuracyTracker(export=False))


class TestDriftDetector:
    """The drift rules (:mod:`repro.mdbs.lifecycle`) over these windows."""

    def _tracker_with(self, good: int, bad: int) -> AccuracyTracker:
        tracker = AccuracyTracker(export=False)
        for _ in range(good):
            tracker.record("A", "G1", 0, predicted=1.0, actual=1.0)
        for _ in range(bad):
            tracker.record("A", "G1", 0, predicted=10.0, actual=1.0)
        return tracker

    def check(self, tracker, policy=None, states=FakeStates(0.1, 0.4), now=0.0):
        return drift_event(policy or DriftPolicy(), tracker, "A", "G1", states, now)

    def test_good_band_rule_fires(self):
        event = self.check(self._tracker_with(good=0, bad=16), now=100.0)
        assert event.rule == "good_band"
        assert event.class_label == "G1"
        assert "floor" in event.detail

    def test_min_samples_gates_accuracy_rules(self):
        tracker = self._tracker_with(good=0, bad=4)
        assert self.check(tracker, DriftPolicy(min_samples=12)) is None

    def test_bias_rule_fires_when_band_rule_disabled(self):
        tracker = AccuracyTracker(export=False)
        # Sustained ~1.9x overestimation: inside the 2x "good" band, so
        # the band rule stays quiet, but heavily biased.
        for _ in range(20):
            tracker.record("A", "G1", 0, predicted=1.9, actual=1.0)
        event = self.check(tracker, DriftPolicy(bias_limit=0.5))
        assert event.rule == "bias"
        assert event.stats["bias"] == pytest.approx(0.9)
        assert self.check(tracker, DriftPolicy(bias_limit=None)) is None

    def test_probe_escape_fires_before_any_accuracy_sample(self):
        tracker = AccuracyTracker(export=False)
        for cost in (0.9, 0.95, 1.0, 1.05):
            tracker.record_probe("A", cost)
        event = self.check(tracker, now=5.0)
        assert event.rule == "probe_escape"
        assert event.stats["escaped_fraction"] == 1.0

    def test_probe_margin_tolerates_edge_clamping(self):
        tracker = AccuracyTracker(export=False)
        for cost in (0.41, 0.42, 0.43, 0.44):  # just past cmax=0.4
            tracker.record_probe("A", cost)
        assert self.check(tracker, DriftPolicy(probe_margin=0.10)) is None

    def test_at_most_one_event_per_class_and_rule_priority(self):
        # Both probe_escape and good_band would fire; escape wins.
        tracker = self._tracker_with(good=0, bad=16)
        for cost in (2.0, 2.0, 2.0, 2.0):
            tracker.record_probe("A", cost)
        assert self.check(tracker).rule == "probe_escape"

    def test_cooldown_suppresses_refire(self):
        site = make_site("A", environment_kind="uniform", scale=0.008, seed=33)
        X, y, probing = stepped_sample(true_states=2, n=120, seed=3)
        fit = fit_qualitative(X, y, probing, uniform_partition(0.0, 1.0, 2), ("x",))
        registry = CostModelRegistry()
        registry.publish("A", MultiStateCostModel.from_fit(fit, "G1", "unary", "iupma"))
        tracker = self._tracker_with(good=0, bad=16)
        lifecycle = ModelLifecycle(registry, tracker)
        lifecycle.watch(
            "A",
            CostModelBuilder(site.database),
            lambda query_class, n: [],
            drift=DriftPolicy(cooldown_seconds=100.0),
        )

        def events_after(seconds):
            site.environment.advance(seconds)
            before = len(tracker.drift_events)
            assert list(lifecycle.rebuilds()) == []  # G1 is not registered
            return tracker.drift_events[before:]

        assert events_after(0.0)
        assert events_after(50.0) == []
        assert events_after(100.0)


class TestDriftEvent:
    def test_round_trip(self):
        event = DriftEvent(
            site="A",
            class_label="G3",
            rule="good_band",
            at_time=42.0,
            detail="good-band 10% < 50% floor",
            stats={"n": 16},
        )
        assert DriftEvent.from_dict(event.to_dict()) == event

    def test_describe_mentions_rule_site_class(self):
        event = DriftEvent("A", "G3", "bias", 7.0, "over")
        text = event.describe()
        assert "bias" in text and "A/G3" in text and "over" in text
