"""The wrap list and the arithmetic from spans to per-layer metrics.

Wrap points are public names of the ``repro`` layers only.  Span names
start with the layer, so a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import copy
import json
from collections import defaultdict

from .trace import Recorder, SpanStats, WrapPoint

#: Client-side serving spans.  They overlap the worker thread's work, so
#: their own self time is not a layer cost: the serving layer's self
#: time comes from the tickets (latency minus everything recorded
#: beneath the request), which also covers the thread hop.
CLIENT_SPANS = ("serving.submit", "serving.serve")


# -- hooks -------------------------------------------------------------------


def _probing_counts(probing) -> tuple[int, int, int]:
    return (
        sum(probing.probes_executed.values()), probing.cache_hits, probing.coalesced
    )


def _before_submit(recorder: Recorder, args) -> None:
    recorder.request += 1
    frontend = args[0]
    if id(frontend) not in recorder.seen:
        recorder.seen[id(frontend)] = (
            frontend,
            (frontend.stats(), _probing_counts(frontend.server.probing)),
        )


def _after_submit(recorder: Recorder, args, ticket, frame) -> None:
    recorder.collected.setdefault("tickets", []).append(ticket)


def _before_execute(recorder: Recorder, args) -> None:
    pool = args[0].buffer_pool
    if pool is not None and id(pool) not in recorder.seen:
        recorder.seen[id(pool)] = (pool, copy.copy(pool.stats))


def _after_execute(recorder: Recorder, args, result, frame) -> None:
    # SelectQuery has .table, JoinQuery .left/.right; the parsed query is
    # only known once the call returns (SQL text goes in).
    frame[0] = (
        "engine.execute_unary" if hasattr(result.query, "table") else "engine.execute_join"
    )
    metrics = result.metrics
    recorder.count("tuples_read", metrics.tuples_read)
    recorder.count("tuples_output", metrics.tuples_output)
    recorder.count("logical_page_reads", metrics.logical_page_reads)


def _after_temp_table(recorder: Recorder, args, result, frame) -> None:
    recorder.count("temp_rows", len(args[4]))


def _after_bulk_load(recorder: Recorder, args, result, frame) -> None:
    recorder.count("bulk_load_rows", args[0].cardinality)


def _after_build(recorder: Recorder, args, outcome, frame) -> None:
    recorder.count("models", 1)
    recorder.count("states", outcome.model.num_states)
    for phase, seconds in outcome.timings.items():
        recorder.count(f"timing.{phase}", seconds)


def _after_maintain(recorder: Recorder, args, results, frame) -> None:
    recorder.count("rebuilds", sum(len(rebuilt) for rebuilt in results.values()))


def _after_export(recorder: Recorder, args, payload, frame) -> None:
    recorder.counters["export_bytes"] = float(len(json.dumps(payload)))


WRAP_POINTS = [
    WrapPoint(
        "repro.serving.frontend:ServingFrontEnd.submit", "serving.submit",
        before=_before_submit, after=_after_submit,
    ),
    WrapPoint("repro.serving.frontend:ServingFrontEnd.serve", "serving.serve"),
    WrapPoint("repro.serving.plan_cache:PlanCache.lookup", "serving.plan_cache.lookup"),
    WrapPoint("repro.serving.plan_cache:PlanCache.put", "serving.plan_cache.put"),
    WrapPoint("repro.mdbs.optimizer:GlobalQueryOptimizer.plans", "mdbs.optimizer.plans"),
    WrapPoint("repro.mdbs.optimizer:GlobalQueryOptimizer.choose", "mdbs.optimizer.choose"),
    WrapPoint(
        "repro.mdbs.probing_service:ProbingService.probing_cost",
        "mdbs.probing.probing_cost",
    ),
    WrapPoint("repro.mdbs.probing_service:ProbingService.probe", "mdbs.probing.probe"),
    WrapPoint("repro.mdbs.server:MDBSServer.execute", "mdbs.server.execute"),
    WrapPoint(
        "repro.mdbs.server:MDBSServer.maintain", "mdbs.maintain", after=_after_maintain
    ),
    WrapPoint("repro.obs.quality:AccuracyTracker.record", "mdbs.accuracy_record"),
    WrapPoint("repro.mdbs.agent:MDBSAgent.execute", "mdbs.agent.execute"),
    WrapPoint(
        "repro.mdbs.agent:MDBSAgent.create_temp_table", "mdbs.agent.create_temp_table",
        after=_after_temp_table,
    ),
    WrapPoint(
        "repro.mdbs.agent:MDBSAgent.drop_temp_table", "mdbs.agent.drop_temp_table"
    ),
    WrapPoint("repro.mdbs.catalog:GlobalCatalog.import_models", "mdbs.registry.import"),
    WrapPoint(
        "repro.mdbs.catalog:GlobalCatalog.export_models", "mdbs.registry.export",
        after=_after_export,
    ),
    WrapPoint("repro.mdbs.registry:CostModelRegistry.publish", "mdbs.registry.publish"),
    WrapPoint(
        "repro.engine.database:LocalDatabase.execute", "engine.execute",
        before=_before_execute, after=_after_execute,
    ),
    WrapPoint("repro.engine.database:LocalDatabase.plan", "engine.plan"),
    WrapPoint("repro.engine.database:LocalDatabase.parse", "engine.sql_parse"),
    WrapPoint("repro.engine.database:LocalDatabase.create_table", "engine.create_table"),
    WrapPoint(
        "repro.engine.table:Table.bulk_load", "engine.bulk_load", after=_after_bulk_load
    ),
    WrapPoint("repro.engine.table:Table.analyze", "engine.analyze"),
    WrapPoint(
        "repro.core.builder:CostModelBuilder.build", "core.build", after=_after_build
    ),
    WrapPoint("repro.core.builder:CostModelBuilder.collect", "core.collect"),
    WrapPoint("repro.core.validation:validate_model", "core.validate"),
    WrapPoint("repro.core.probing:ProbingQuery.observe", "core.probe_observe"),
    WrapPoint("repro.core.model:MultiStateCostModel.predict_in_state", "core.predict"),
    WrapPoint("repro.mlr.ols:fit_ols", "mlr.fit_ols"),
    WrapPoint("repro.mlr.diagnostics:variance_inflation_factor", "mlr.vif"),
    WrapPoint("repro.obs.metrics:MetricsRegistry.inc", "obs.inc"),
    WrapPoint("repro.obs.metrics:MetricsRegistry.observe", "obs.observe"),
    WrapPoint("repro.obs.metrics:MetricsRegistry.set_gauge", "obs.set_gauge"),
    WrapPoint("repro.workload.scenarios:make_site", "workload.make_site"),
    WrapPoint("repro.workload.querygen:QueryGenerator.queries_for", "workload.querygen"),
    WrapPoint("repro.loadgen.worker:run_shard", "loadgen.run_shard"),
    WrapPoint("repro.loadgen.worker:make_universe", "loadgen.make_universe"),
]


# -- spans -> metrics ----------------------------------------------------------


def _ms(stats: dict[str, SpanStats], names, per: str) -> float:
    """Mean milliseconds (``per``: total_s or self_s) per call of the first name.

    Further names are spans nested one-to-one inside the first (``choose``
    calls ``plans``), whose time belongs to the same operation.
    """
    names = (names,) if isinstance(names, str) else names
    seconds = sum(getattr(stats[n], per) for n in names)
    return 1e3 * _ratio(seconds, stats[names[0]].calls)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def serving_self_seconds(recorder: Recorder) -> tuple[float, float, float]:
    """(serving self seconds, tickets, queued seconds) from the settled tickets.

    A ticket's latency covers submit, the queue hop, the worker's
    processing and its bookkeeping; what the worker thread and the
    submit call recorded beneath it belongs to other layers.
    """
    count = recorder.counters
    submit = recorder.stats()["serving.submit"]
    beneath = recorder.root_seconds(worker_threads=True) + (
        submit.total_s - submit.self_s
    )
    return (
        max(0.0, count["ticket_latency_s"] - beneath),
        count["tickets"],
        count["ticket_queued_s"],
    )


def layer_self_seconds(recorder: Recorder) -> dict[str, float]:
    """Self seconds per layer — the parts every traced total re-derives from."""
    layers: defaultdict[str, float] = defaultdict(float)
    for name, stats in recorder.stats().items():
        if name not in CLIENT_SPANS:
            layers[name.partition(".")[0]] += stats.self_s
    layers["serving"] += serving_self_seconds(recorder)[0]
    return dict(layers)


def settle(recorder: Recorder) -> None:
    """Fold tickets and the counter movements of what the hooks saw into ``counters``.

    Called right after the traced repetition: the baselines the hooks
    took belong to it, and front ends and pools go on counting.
    """
    for ticket in recorder.collected.pop("tickets", []):
        recorder.count("tickets")
        recorder.count("ticket_latency_s", ticket.latency_seconds or 0.0)
        recorder.count("ticket_queued_s", ticket.wait_seconds or 0.0)
    for obj, baseline in recorder.seen.values():
        if hasattr(obj, "plan_cache"):  # a ServingFrontEnd
            before, probing_before = baseline
            now, probing_now = obj.stats(), _probing_counts(obj.server.probing)
            moved = {
                "rejected": now.rejected - before.rejected,
                "timed_out": now.timed_out - before.timed_out,
                "failed": now.failed - before.failed,
                "hits": now.plan_cache_hits - before.plan_cache_hits,
                "misses": now.plan_cache_misses - before.plan_cache_misses,
                "evictions": now.plan_cache_evictions - before.plan_cache_evictions,
                "invalidated": now.plan_cache_invalidated - before.plan_cache_invalidated,
            }
            for key, a, b in zip(
                ("probes", "probe_hits", "coalesced"), probing_now, probing_before
            ):
                moved[key] = a - b
        else:  # a BufferPool
            moved = {
                "pool_reads": obj.stats.logical_reads - baseline.logical_reads,
                "pool_hits": obj.stats.hits - baseline.hits,
                "pool_evictions": obj.stats.evictions - baseline.evictions,
            }
        for key, amount in moved.items():
            recorder.count(f"seen.{key}", amount)
    recorder.seen.clear()


def layer_metrics(
    rep: Recorder, setup: Recorder, ops: int, wall_s: float
) -> dict[str, float]:
    """Every traced per-layer metric except the workload's own extras.

    *rep* covers the traced repetition (*ops* ops, *wall_s* seconds),
    *setup* the traced set-up.  Metrics about set-up work (table
    generation, import, export) read both.
    """
    st = rep.stats()
    both = setup.stats()
    for name, stats in st.items():
        both[name].add(stats)
    count = rep.counters
    models = count["models"]
    serving_self, tickets, queued = serving_self_seconds(rep)
    obs_spans = [st[name] for name in ("obs.inc", "obs.observe", "obs.set_gauge")]
    temp_tables = (st["mdbs.agent.create_temp_table"], st["mdbs.agent.drop_temp_table"])
    metrics = {
        "serving.submit_ms": _ms(st, "serving.submit", "total_s"),
        "serving.queue_wait_ms": 1e3 * _ratio(queued, tickets),
        "serving.self_ms": 1e3 * _ratio(serving_self, tickets),
        "serving.rejected": count["seen.rejected"],
        "serving.timed_out": count["seen.timed_out"],
        "serving.failed": count["seen.failed"],
        "serving.plan_cache.lookup_ms": _ms(st, "serving.plan_cache.lookup", "self_s"),
        "serving.plan_cache.put_ms": _ms(st, "serving.plan_cache.put", "self_s"),
        "serving.plan_cache.hit_rate": _ratio(
            count["seen.hits"], count["seen.hits"] + count["seen.misses"]
        ),
        "serving.plan_cache.evictions": count["seen.evictions"],
        "serving.plan_cache.invalidated": count["seen.invalidated"],
        "mdbs.optimizer.plans_ms": _ms(
            st, ("mdbs.optimizer.plans", "mdbs.optimizer.choose"), "self_s"
        ),
        "mdbs.optimizer.calls": _ratio(st["mdbs.optimizer.plans"].calls, ops),
        "mdbs.probing.probe_ms": _ms(
            st, ("mdbs.probing.probe", "mdbs.probing.probing_cost"), "self_s"
        ),
        "mdbs.probing.executed": _ratio(count["seen.probes"], ops),
        "mdbs.probing.cache_hit_rate": _ratio(
            count["seen.probe_hits"], count["seen.probe_hits"] + count["seen.probes"]
        ),
        "mdbs.probing.coalesced": count["seen.coalesced"],
        "mdbs.server.self_ms": _ms(st, "mdbs.server.execute", "self_s"),
        "mdbs.accuracy_record_ms": _ms(st, "mdbs.accuracy_record", "total_s"),
        "mdbs.agent.execute_ms": _ms(st, "mdbs.agent.execute", "self_s"),
        "mdbs.agent.temp_table_ms": 1e3 * _ratio(sum(s.self_s for s in temp_tables), ops),
        "mdbs.agent.temp_rows": _ratio(count["temp_rows"], ops),
        "mdbs.registry.import_ms": _ms(both, "mdbs.registry.import", "total_s"),
        "mdbs.registry.publish_ms": _ms(both, "mdbs.registry.publish", "total_s"),
        "mdbs.registry.export_bytes": setup.counters["export_bytes"],
        "mdbs.maintain_ms": _ms(st, "mdbs.maintain", "total_s"),
        "mdbs.rebuilds": count["rebuilds"],
        "engine.execute_unary_ms": _ms(st, "engine.execute_unary", "self_s"),
        "engine.execute_join_ms": _ms(st, "engine.execute_join", "self_s"),
        "engine.plan_ms": _ms(st, "engine.plan", "total_s"),
        "engine.sql_parse_ms": _ms(st, "engine.sql_parse", "total_s"),
        "engine.bulk_load_ms": _ms(st, "engine.bulk_load", "total_s"),
        "engine.bulk_load_rows": _ratio(count["bulk_load_rows"], ops),
        "engine.rows_read_per_row_out": _ratio(count["tuples_read"], count["tuples_output"]),
        "engine.logical_page_reads": _ratio(count["logical_page_reads"], ops),
        "engine.buffer.hit_rate": _ratio(count["seen.pool_hits"], count["seen.pool_reads"]),
        "engine.buffer.evictions": _ratio(count["seen.pool_evictions"], ops),
        "core.sampling_s": _ratio(count["timing.sampling"], models),
        "core.partitioning_s": _ratio(count["timing.partitioning"], models),
        "core.selection_s": _ratio(count["timing.variable_selection"], models),
        "core.fitting_s": _ratio(count["timing.fitting"], models),
        "core.states_found": _ratio(count["states"], models),
        "core.probe_observe_ms": _ms(st, "core.probe_observe", "total_s"),
        "core.predict_us": 1e3 * _ms(st, "core.predict", "total_s"),
        "mlr.fit_ols_ms": _ms(st, "mlr.fit_ols", "total_s"),
        "mlr.fit_ols_calls": _ratio(st["mlr.fit_ols"].calls, models),
        "mlr.vif_ms": _ms(st, "mlr.vif", "self_s"),
        "mlr.vif_calls": _ratio(st["mlr.vif"].calls, models),
        "obs.calls_per_op": _ratio(sum(s.calls for s in obs_spans), ops),
        "obs.self_ms_per_op": 1e3 * _ratio(sum(s.self_s for s in obs_spans), ops),
        "workload.tablegen_s": setup.stats()["workload.make_site"].total_s,
        "workload.querygen_ms": _ms(both, "workload.querygen", "total_s"),
        "bench.accounted_frac": _ratio(sum(layer_self_seconds(rep).values()), wall_s),
    }
    if st["loadgen.run_shard"].calls:  # the fleet: shards rebuild, serve, maintain
        universe, serve, maintain = (
            st[name].total_s
            for name in ("loadgen.make_universe", "serving.serve", "mdbs.maintain")
        )
        other = st["loadgen.run_shard"].total_s - universe - serve - maintain
        metrics |= {
            "workload.tablegen_s": st["workload.make_site"].total_s,
            "loadgen.universe_s": universe,
            "loadgen.serve_s": serve,
            "loadgen.maintain_s": maintain,
            "loadgen.other_s": other,
        }
    return metrics
