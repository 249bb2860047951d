"""End-to-end: the front end riding out a regime shift.

The full adaptive loop, all through the front end: it serves batched
global joins while the workload's contention regime shifts underneath
it; the armed drift policy turns the watched class's collapsing
accuracy window into a targeted re-derivation; the registry publish
invalidates exactly the stale cached plans; and the rebuilt model
brings accuracy back into the §5 good band *under the new regime* —
while every request keeps completing.
"""

import pytest

from repro.experiments.drift_detection import builder_config
from repro.loadgen import (
    VAR_SITE,
    WATCHED_CLASS,
    loadgen_drift_policy,
    loadgen_tables,
    make_universe,
    train_models,
)
from repro.loadgen.worker import _MODEL_CLASSES
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.server import MDBSServer
from repro.obs.quality import AccuracyTracker
from repro.serving import ServingConfig, ServingFrontEnd
from repro.workload.scenarios import round_query

from ..loadgen.conftest import MICRO

GAP = 600.0
ROUNDS = 16
SHIFT_ROUND = 5
QUERIES_PER_ROUND = 4

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def payload():
    return train_models(MICRO)


def test_pool_survives_regime_shift_and_recovers(payload):
    import numpy as np

    var, steady = make_universe(MICRO)
    tables = loadgen_tables(MICRO)
    tracker = AccuracyTracker(probe_window_size=8, export=False)
    server = MDBSServer(accuracy=tracker, probe_ttl=GAP / 4.0)
    for site in (var, steady):
        server.register_agent(MDBSAgent(site.database))
    server.catalog.import_models(payload)

    server.register_model_classes(
        var.name,
        _MODEL_CLASSES,
        lambda query_class, n: var.generator.queries_for(
            query_class, n, tables=tables
        ),
        builder_config=builder_config(),
        sample_count=lambda query_class: MICRO.train_count(query_class.family),
        drift=loadgen_drift_policy(GAP),
        build_now=False,
    )

    rng = np.random.default_rng(4242)
    serving = ServingConfig(plan_cache=True)
    detect_round = recover_round = None
    completed = failed = 0
    with ServingFrontEnd(server, serving) as frontend:
        for r in range(ROUNDS):
            var.environment.advance(GAP)
            steady.environment.advance(GAP)
            if r == SHIFT_ROUND:
                # The regime shift: contention pins near saturation.
                var.load_builder.constant(0.9)

            # The whole round is served as one batch over the shared
            # plan cache and probe state.
            batch = [
                round_query(var.name, steady.name, tables, rng)
                for _ in range(QUERIES_PER_ROUND)
            ]
            tickets = frontend.serve(batch)
            completed += sum(1 for t in tickets if t.ok)
            failed += sum(1 for t in tickets if not t.ok)

            before = len(tracker.drift_events)
            server.maintain()
            if detect_round is None and len(tracker.drift_events) > before:
                if r >= SHIFT_ROUND:
                    detect_round = r
            stats = tracker.stats(var.name, WATCHED_CLASS)
            if (
                detect_round is not None
                and recover_round is None
                and r > detect_round
                and stats.count >= 3
                and stats.pct_good >= 50.0
            ):
                recover_round = r
        front_stats = frontend.stats()

    # Nothing dropped, nothing errored.
    assert completed == ROUNDS * QUERIES_PER_ROUND
    assert failed == 0
    assert front_stats.completed == completed

    # The loop closed: shift detected, model re-derived and published,
    # post-rebuild accuracy back in the good band under the new regime.
    assert detect_round is not None, "drift never detected after the shift"
    assert detect_round - SHIFT_ROUND <= 4
    registry = server.catalog.registry
    active = registry.active_version(VAR_SITE, WATCHED_CLASS)
    assert active.version > 1
    assert active.provenance.trigger is not None
    assert recover_round is not None, "accuracy never returned to the good band"

    # The publish reached the plan cache: dependent entries were evicted
    # (the cache was warm before the shift, so invalidations are visible).
    assert front_stats.plan_cache_invalidated > 0
