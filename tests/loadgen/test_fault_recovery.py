"""The drift loop under each disturbance kind: detect, rebuild, recover.

One test per disturbance — site outage, site slowdown, and the workload
scenario's own regime shift — each asserting the full loop on a single
shard timeline: the disturbance lands, the armed drift policy raises an
event within a few rounds, the maintainer publishes a re-derived model
through the registry, and the watched class's accuracy returns to the
§5 good band.  Assertions are rule-agnostic (an outage may surface via
``good_band`` before ``probe_escape`` accumulates readings); what
matters is the detect→rebuild→recover loop closing.
"""

import pytest

from repro.loadgen import (
    VAR_SITE,
    WATCHED_CLASS,
    FaultEvent,
    ShardTask,
    measure_drift_loop,
    run_shard,
)

GAP = 600.0
ROUNDS = 18

pytestmark = pytest.mark.slow


def fault_task(config, kind, level, scenario="calm"):
    """Fault from round 4 through round 8 — half the timeline to recover."""
    return ShardTask(
        index=0,
        scenario=scenario,
        rounds=ROUNDS,
        gap_seconds=GAP,
        config=config,
        faults=(
            FaultEvent(
                shard=0,
                kind=kind,
                at_seconds=4 * GAP,
                duration_seconds=5 * GAP,
                level=level,
            ),
        ),
    )


def assert_loop_closed(report, *, expects_clear):
    stats = measure_drift_loop(report.rounds, GAP)
    assert stats.onset_round is not None
    assert stats.detected, f"no drift event after onset: {report.rounds}"
    assert stats.detect_latency_rounds <= 3
    if expects_clear:
        assert stats.cleared_round is not None
    else:
        assert stats.cleared_round is None
    assert stats.recovered, "accuracy never returned to the good band"
    assert stats.recover_round < ROUNDS
    # Recovery came from a registry publish, not luck: at least one
    # drift-triggered version of the watched class went live.
    watched = [
        (site, label, version, trigger)
        for site, label, version, trigger in report.published
        if site == VAR_SITE and label == WATCHED_CLASS
    ]
    assert watched, f"no drift-published rebuild: {report.published}"
    assert all(version > 1 for _, _, version, _ in watched)
    return stats


def test_outage_detected_and_recovered(micro_config, trained_payload):
    report = run_shard(
        fault_task(micro_config, "outage", level=0.98), trained_payload
    )
    # The outage swapped the probe: transitions were logged both ways.
    notes = [note for _, note in report.fault_log]
    assert notes.count("outage:applied") == 1
    assert notes.count("outage:cleared") == 1
    # Serving survives the outage (plans degrade to stale probe data).
    assert report.failed == 0
    assert report.completed == ROUNDS * 3
    assert_loop_closed(report, expects_clear=True)


def test_slowdown_detected_and_recovered(micro_config, trained_payload):
    report = run_shard(
        fault_task(micro_config, "slowdown", level=0.9), trained_payload
    )
    notes = [note for _, note in report.fault_log]
    assert notes.count("slowdown:applied") == 1
    assert notes.count("slowdown:cleared") == 1
    assert report.failed == 0
    assert_loop_closed(report, expects_clear=True)


def test_regime_shift_detected_and_recovered(micro_config, trained_payload):
    task = ShardTask(
        index=0,
        scenario="regime_shift",
        rounds=ROUNDS,
        gap_seconds=GAP,
        config=micro_config,
    )
    report = run_shard(task, trained_payload)
    assert report.fault_log == []  # no scripted fault — the workload shifts
    assert any(r.shift_started for r in report.rounds)
    assert report.failed == 0
    stats = assert_loop_closed(report, expects_clear=False)
    # The shift never clears, so the tail rounds stay disturbed *and* good:
    # the rebuilt model serves the new regime, which is the §5 story.
    tail = report.rounds[stats.recover_round]
    assert tail.disturbed
    assert tail.good_pct >= 50.0


def test_calm_baseline_raises_no_events(micro_config, trained_payload):
    """The detector's false-positive guard: calm load, no faults."""
    task = ShardTask(
        index=0,
        scenario="calm",
        rounds=10,
        gap_seconds=GAP,
        config=micro_config,
    )
    report = run_shard(task, trained_payload)
    stats = measure_drift_loop(report.rounds, GAP)
    assert stats.onset_round is None
    assert report.rounds[-1].active_version == 1
