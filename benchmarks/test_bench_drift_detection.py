"""End-to-end: model-quality telemetry closes the maintenance loop.

The §2 maintenance policy watches the *catalog*; a contention-regime
shift changes nothing there, yet silently invalidates every model
derived under the old regime.  Reproduction target: the drift rules
(probing costs escaping the partitioned state ranges, the §5 good-band
share collapsing) catch a scripted shift within a few served queries,
the triggered re-derivation publishes a new registry version whose
provenance records the event, and the rebuilt models put the accuracy
back in the good band — while the stale-model counterfactual stays bad.
"""

from repro.experiments.drift_detection import (
    render_drift_detection,
    run_drift_detection,
)


def test_bench_drift_detection(config):
    result = run_drift_detection(config)

    print()
    print(render_drift_detection(result))

    assert result.events, "the scripted shift raised no drift event"
    assert result.detection_latency_rounds is not None
    assert result.detection_latency_rounds <= 6
    # The re-derivation published a new version with the event on record.
    assert result.published
    assert all(trigger for _, _, _, trigger in result.published)
    # Accuracy recovers on the rebuilt models; the counterfactual
    # (stale v1, detection disarmed, same load) stays degraded.
    assert result.recovered.pct_good >= 75.0
    assert result.stale.pct_good <= 25.0
    assert result.stale.bias < 0  # calm-regime model underestimates
