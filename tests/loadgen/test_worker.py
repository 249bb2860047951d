"""Shard-level behaviour: training payloads, pure reruns, round records."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import G1, CostModelBuilder
from repro.engine import LocalDatabase
from repro.engine.table import Table
from repro.experiments.drift_detection import builder_config
from repro.loadgen import (
    STEADY_SITE,
    VAR_SITE,
    ShardTask,
    deterministic_json,
    make_universe,
    run_shard,
    universe_seed,
)
from repro.loadgen.worker import loadgen_tables
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.server import MDBSServer
from repro.obs.quality import AccuracyTracker
from repro.workload import tablegen
from repro.workload.scenarios import round_query

GAP = 600.0


def calm_task(config, rounds=5, index=0):
    return ShardTask(
        index=index,
        scenario="calm",
        rounds=rounds,
        gap_seconds=GAP,
        config=config,
    )


def test_universe_is_reproducible(micro_config):
    var_a, steady_a = make_universe(micro_config)
    var_b, steady_b = make_universe(micro_config)
    assert var_a.name == VAR_SITE and steady_a.name == STEADY_SITE
    table = micro_config.join_tables[0]
    assert len(var_a.database.catalog.table(table)) == len(
        var_b.database.catalog.table(table)
    )
    assert universe_seed(micro_config) == universe_seed(micro_config)


#: sha256 of every index's height, clustering ratio and root-to-leaf node
#: paths (toward each distinct key), taken at the commit before the B+-tree
#: insert became iterative.  Each node is recorded as the ``("I", index,
#: node)`` triple the buffer pool keyed pages by then, so the digest still
#: holds.  Node ids are buffer-pool identities and the height is a
#: simulated cost: a faster build may not move either.
INDEX_DIGESTS = {
    VAR_SITE: "c8c5e5682ee6d3389613acde2fd61920f484d3f7439c600842e6a3983d505639",
    STEADY_SITE: "6b93c14e66cd200afaf0da3c151c8959b2bde904acc6d93c7dd0a1eb5139e963",
}


def index_digest(site) -> str:
    catalog = site.database.catalog
    records = []
    for table in catalog.tables():
        for index in catalog.indexes_for(table.name):
            keys = sorted(set(table.column_values(index.column_name)))
            records.append(
                [
                    index.name,
                    index.height,
                    repr(index.clustering_ratio()),
                    [
                        [("I", index.name, node) for node in index.traversal_path(key)]
                        for key in [None, *keys]
                    ],
                ]
            )
    assert len(records) == 16
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_universe_index_shapes_match_committed_digest(micro_config):
    for site in make_universe(micro_config):
        assert index_digest(site) == INDEX_DIGESTS[site.name]


def test_index_digest_holds_for_first_build_and_tenth_fork(
    micro_config, template_store
):
    universes = [make_universe(micro_config) for _ in range(10)]
    assert len(template_store) == 2  # one build per site, nine forks each
    for universe in (universes[0], universes[-1]):
        for site in universe:
            assert index_digest(site) == INDEX_DIGESTS[site.name]


def test_trained_payload_covers_both_sites(trained_payload):
    models = trained_payload["models"]
    assert len(models) == 4
    sites = {key.split("/")[0] for key in models}
    assert sites == {VAR_SITE, STEADY_SITE}


@pytest.mark.slow
def test_run_shard_calm_counts(micro_config, trained_payload):
    task = calm_task(micro_config, rounds=5)
    report = run_shard(task, trained_payload)
    expected = task.rounds * task.queries_per_round
    assert report.requests == expected
    assert report.completed == expected
    assert report.failed == 0
    assert len(report.latencies) == expected
    assert len(report.wall_latencies) == expected
    assert all(value > 0 for value in report.latencies)
    assert len(report.rounds) == task.rounds
    assert [r.index for r in report.rounds] == list(range(task.rounds))
    assert report.models_imported == 4
    # Simulated time advances monotonically round to round.
    times = [r.sim_time for r in report.rounds]
    assert times == sorted(times)
    assert not any(r.disturbed for r in report.rounds)


@pytest.mark.slow
def test_run_shard_is_a_pure_function(micro_config, trained_payload):
    """Same (task, payload) in, byte-identical deterministic report out."""
    task = calm_task(micro_config, rounds=4)
    first = run_shard(task, trained_payload)
    second = run_shard(task, trained_payload)
    assert deterministic_json(first.deterministic_dict()) == deterministic_json(
        second.deterministic_dict()
    )


@pytest.mark.slow
def test_run_shard_is_identical_on_cold_warm_and_rebuilt_templates(
    micro_config, trained_payload, template_store, monkeypatch
):
    task = calm_task(micro_config, rounds=4, index=1)

    def served() -> str:
        return deterministic_json(run_shard(task, trained_payload).deterministic_dict())

    cold = served()
    built = list(template_store.values())
    assert len(built) == 2
    warm = served()
    assert list(template_store.values()) == built
    # A store of one: another spec pushes both templates out, then each
    # site's rebuild evicts the other's.
    monkeypatch.setattr(tablegen, "TEMPLATE_STORE_SIZE", 1)
    elsewhere = tablegen.WorkloadSpec(tables=(tablegen.TableSpec("T", 200),))
    tablegen.populate_database(LocalDatabase("elsewhere"), elsewhere)
    rebuilt = served()
    assert len(template_store) == 1
    assert not any(t is b for t in template_store.values() for b in built)
    assert cold == warm == rebuilt


@pytest.mark.slow
def test_shards_differ_only_by_stream(micro_config, trained_payload):
    """Different indexes serve different queries over the same universe."""
    first = run_shard(calm_task(micro_config, rounds=4, index=0), trained_payload)
    second = run_shard(calm_task(micro_config, rounds=4, index=1), trained_payload)
    assert first.latencies != second.latencies


def test_deterministic_dict_drops_wall_fields(micro_config, trained_payload):
    report = run_shard(calm_task(micro_config, rounds=2), trained_payload)
    payload = report.deterministic_dict()
    assert "wall_latencies" not in payload
    assert "wall_seconds" not in payload
    assert report.wall_seconds > 0.0


@pytest.mark.slow
def test_serving_deriving_and_a_shard_build_no_row_view_of_a_base_table(
    micro_config, trained_payload, template_store, monkeypatch
):
    """Tables are read by column only on every measured path.

    ``Table.rows()`` builds a tuple per row on every call: one stray call
    on a base table would cost, per call, the memory and time that
    column-only tables save.  Serving, deriving and a shard (template
    builds included, on a cold store) make none.
    """
    calls = []
    rows = Table.rows

    def counting(table):
        calls.append(table.name)
        return rows(table)

    monkeypatch.setattr(Table, "rows", counting)
    var, steady = make_universe(micro_config)
    tables = loadgen_tables(micro_config)
    server = MDBSServer(accuracy=AccuracyTracker(export=False))
    for site in (var, steady):
        server.register_agent(MDBSAgent(site.database))
    server.catalog.import_models(trained_payload)
    rng = np.random.default_rng(5)
    for _ in range(4):
        server.execute(round_query(var.name, steady.name, tables, rng))
    CostModelBuilder(var.database, config=builder_config()).build(
        G1, var.generator.queries_for(G1, 20, tables=tables)
    )
    run_shard(calm_task(micro_config, rounds=2), trained_payload)
    assert len(template_store) == 2
    assert calls == []
