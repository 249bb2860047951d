"""Units for drift-loop measurement and percentile conventions."""

from repro.loadgen import measure_drift_loop, percentile

GAP = 600.0


def rounds_from(spec):
    """Build round dicts from (notes, shift, events, samples, good) rows."""
    rounds = []
    for index, (notes, shift, events, samples, good) in enumerate(spec):
        rounds.append(
            {
                "index": index,
                "fault_notes": notes,
                "shift_started": shift,
                "drift_events": [{} for _ in range(events)],
                "samples": samples,
                "good_pct": good,
            }
        )
    return rounds


GOOD = ([], False, 0, 9, 90.0)
BAD = ([], False, 0, 9, 10.0)


class TestMeasureDriftLoop:
    def test_undisturbed_timeline(self):
        stats = measure_drift_loop(rounds_from([GOOD] * 5), GAP)
        assert stats.onset_round is None
        assert not stats.detected
        assert not stats.recovered
        assert stats.detect_latency_rounds is None
        assert stats.recover_latency_rounds is None

    def test_fault_detect_and_recover(self):
        spec = [
            GOOD,
            GOOD,
            (["outage:applied"], False, 0, 9, 80.0),  # onset, not yet seen
            ([], False, 1, 9, 30.0),                  # detector fires
            BAD,
            (["outage:cleared"], False, 0, 9, 40.0),  # fault ends
            ([], False, 0, 4, 85.0),                  # back in the band
            GOOD,
        ]
        stats = measure_drift_loop(rounds_from(spec), GAP)
        assert stats.onset_round == 2
        assert stats.detect_round == 3
        assert stats.cleared_round == 5
        assert stats.recover_round == 6
        assert stats.detect_latency_rounds == 1
        assert stats.recover_latency_rounds == 3
        d = stats.to_dict()
        assert d["detect_latency_seconds"] == 1 * GAP
        assert d["recover_latency_seconds"] == 3 * GAP

    def test_recovery_waits_for_post_clear_event(self):
        # A model rebuilt during the fault keeps serving after the clear;
        # the event it raises then must push the recovery anchor forward.
        spec = [
            GOOD,
            (["outage:applied"], False, 0, 9, 70.0),
            ([], False, 1, 9, 20.0),
            (["outage:cleared"], False, 0, 9, 80.0),  # good, but too early
            ([], False, 1, 0, 0.0),                   # late rebuild event
            ([], False, 0, 5, 90.0),
        ]
        stats = measure_drift_loop(rounds_from(spec), GAP)
        assert stats.detect_round == 2
        assert stats.cleared_round == 3
        assert stats.recover_round == 5

    def test_regime_shift_anchors_at_detection(self):
        # Shifts never clear; recovery means good *under the new regime*.
        spec = [
            GOOD,
            ([], True, 0, 9, 85.0),  # shift starts (still looks good)
            ([], False, 1, 9, 25.0),
            BAD,
            ([], False, 0, 6, 75.0),
        ]
        stats = measure_drift_loop(rounds_from(spec), GAP)
        assert stats.onset_round == 1
        assert stats.detect_round == 2
        assert stats.cleared_round is None
        assert stats.recover_round == 4

    def test_recovery_requires_enough_samples(self):
        spec = [
            (["slowdown:applied"], False, 1, 9, 20.0),
            (["slowdown:cleared"], False, 0, 2, 100.0),  # window too thin
            ([], False, 0, 3, 100.0),
        ]
        stats = measure_drift_loop(rounds_from(spec), GAP)
        assert stats.recover_round == 2

    def test_detection_without_recovery(self):
        spec = [
            (["outage:applied"], False, 1, 9, 20.0),
            BAD,
            BAD,
        ]
        stats = measure_drift_loop(rounds_from(spec), GAP)
        assert stats.detected
        assert not stats.recovered

    def test_accepts_dataclass_records(self):
        from repro.loadgen import RoundRecord

        rounds = [
            RoundRecord(index=0, sim_time=GAP, disturbed=False),
            RoundRecord(
                index=1,
                sim_time=2 * GAP,
                disturbed=True,
                fault_notes=["outage:applied"],
                drift_events=[{"rule": "good_band"}],
                samples=9,
                good_pct=10.0,
            ),
            RoundRecord(
                index=2,
                sim_time=3 * GAP,
                disturbed=False,
                fault_notes=["outage:cleared"],
                samples=6,
                good_pct=80.0,
            ),
        ]
        stats = measure_drift_loop(rounds, GAP)
        assert (stats.onset_round, stats.detect_round) == (1, 1)
        assert stats.recover_round == 2


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_convention_matches_serving_bench(self):
        values = [float(v) for v in range(10)]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 9.0
        assert percentile(values, 0.99) == 9.0

    def test_single_value(self):
        assert percentile([3.5], 0.99) == 3.5
