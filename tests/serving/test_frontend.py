"""Front-end behavior: determinism guard, plan sourcing, tracing.

The determinism guard: with the plan cache off the front end must
produce byte-identical plan choices (and results) to the synchronous
``MDBSServer.execute`` path.  The tracing tests pin one *connected*
span tree per request: ``serving.request`` → ``serving.plan`` /
``serving.execute``.
"""

from collections import Counter

import pytest

from repro import obs
from repro.engine.predicate import Comparison
from repro.mdbs.gquery import GlobalJoinQuery
from repro.serving import ServingConfig, ServingFrontEnd

from .conftest import query_mix


def run_sync(server, sites, queries):
    """The reference: synchronous executes from a snapshotted state."""
    snapshot = {n: s.database.save_state() for n, s in sites.items()}
    server.probing.invalidate()
    outcomes = [server.execute(q) for q in queries]
    for name, site in sites.items():
        site.database.restore_state(snapshot[name])
    server.probing.invalidate()
    return outcomes


class TestDeterminismGuard:
    def test_cache_off_matches_synchronous_server(self, serving_mdbs):
        """plan_cache=False == plain server.execute, byte for byte: plan
        text, estimates, result rows, observed timings."""
        server, sites = serving_mdbs
        queries = query_mix()
        reference = run_sync(server, sites, queries)

        config = ServingConfig(plan_cache=False)
        with ServingFrontEnd(server, config) as frontend:
            tickets = frontend.serve(queries)

        assert [t.status for t in tickets] == ["completed"] * len(queries)
        for ticket, ref in zip(tickets, reference):
            assert ticket.execution.plan.describe() == ref.plan.describe()
            assert ticket.execution.plan.join_site == ref.plan.join_site
            assert ticket.execution.rows == ref.rows
            assert ticket.execution.steps == ref.steps
            assert ticket.execution.estimated_seconds == ref.estimated_seconds
            assert ticket.plan_source == "optimizer"

    def test_cache_off_config_has_no_cache(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig(plan_cache=False))
        assert frontend.plan_cache is None


class TestConcurrentServing:
    def test_pool_completes_a_repeated_class_workload(self, serving_mdbs):
        server, _ = serving_mdbs
        distinct = query_mix()
        repeats = distinct * 12  # 72 requests over 6 distinct queries
        with ServingFrontEnd(server, ServingConfig()) as frontend:
            warm = frontend.serve(distinct)
            tickets = frontend.serve(repeats)
            stats = frontend.stats()

        queries = distinct + repeats
        tickets = warm + tickets
        assert all(t.ok for t in tickets), [t.error for t in tickets if not t.ok]
        assert stats.completed == stats.submitted == len(queries)
        # Repeats of a query within unchanged contention states must be
        # served from the plan cache (> 90%).
        hits, misses = stats.plan_cache_hits, stats.plan_cache_misses
        assert hits / (hits + misses) > 0.9
        # A cached plan is the same decision the optimizer would make:
        # every repeat of a query picks the same join site.
        by_query = {}
        for ticket in tickets:
            key = str(ticket.query)
            site = ticket.execution.plan.join_site
            assert by_query.setdefault(key, site) == site

    def test_cache_and_optimizer_sources_are_labelled(self, serving_mdbs, monkeypatch):
        server, sites = serving_mdbs
        queries = query_mix()
        start = {n: s.database.save_state() for n, s in sites.items()}
        probes = server.probing.probes_executed

        def probes_run():
            return sum(probes.get(name, 0) for name in sites)

        before = probes_run()
        with ServingFrontEnd(server, ServingConfig()) as frontend:
            first = frontend.serve(queries)
            second = frontend.serve(queries)
        assert [t.plan_source for t in first] == ["optimizer"] * len(queries)
        assert [t.plan_source for t in second] == ["cache"] * len(queries)
        # Pinned probe TTL + plan cache: one probing query per site,
        # however many requests follow.
        assert probes_run() - before == len(sites)

        # The same stream from the same state with the plan cache off and
        # probe TTL 0: every request probes both sites and re-plans, and
        # the fresh optimizer splits the joins across sites exactly as
        # the cached run did.
        for name, site in sites.items():
            site.database.restore_state(start[name])
        server.probing.invalidate()
        monkeypatch.setattr(server.probing, "ttl", 0.0)
        before = probes_run()
        with ServingFrontEnd(server, ServingConfig(plan_cache=False)) as frontend:
            fresh = frontend.serve(queries * 2)
        assert probes_run() - before == 2 * len(fresh)
        cached_split = Counter(t.execution.plan.join_site for t in first + second)
        assert Counter(t.execution.plan.join_site for t in fresh) == cached_split
        assert set(cached_split) == {"left", "right"}

    def test_tickets_expose_real_latency(self, serving_mdbs):
        server, _ = serving_mdbs
        with ServingFrontEnd(server, ServingConfig()) as frontend:
            [ticket] = frontend.serve(query_mix()[:1])
        assert ticket.ok and ticket.wait()
        assert ticket.wait_seconds == 0.0  # nothing queues
        assert ticket.latency_seconds > 0.0
        assert ticket.finished_at >= ticket.submitted_at


class TestMissingModel:
    def test_stand_in_request_is_served_uncached_and_probes_as_cache_off(
        self, serving_mdbs, monkeypatch
    ):
        """The left selection classifies as G2, which has no model: the
        optimizer estimates it with the same-family G1 stand-in.  The
        cached front end completes every request, caches nothing (an
        uncacheable plan has no dependency set, so every lookup misses
        cold, before resolving any state) and runs exactly the probes of
        the cache-off run."""
        server, sites = serving_mdbs
        table = sites["oracle_site"].database.catalog.table("R2")
        cut = int(table.statistics.column("a1").maximum * 0.05)
        query = GlobalJoinQuery(
            "oracle_site", "R2", "db2_site", "R3", "a4", "a4",
            ("R2.a1", "R3.a2"),
            left_predicate=Comparison("a1", "<", cut),
        )
        assert not server.catalog.registry.has_model("oracle_site", "G2")
        start = {n: s.database.save_state() for n, s in sites.items()}
        monkeypatch.setattr(server.probing, "ttl", 0.0)  # every state read probes
        probes = server.probing.probes_executed

        def serve(config):
            for name, site in sites.items():
                site.database.restore_state(start[name])
            before = sum(probes.values())
            with ServingFrontEnd(server, config) as frontend:
                tickets = frontend.serve([query] * 3)
            return tickets, sum(probes.values()) - before, frontend.plan_cache

        cached, cached_probes, cache = serve(ServingConfig())
        fresh, fresh_probes, _ = serve(ServingConfig(plan_cache=False))
        assert all(t.ok for t in cached + fresh)
        assert cached[0].execution.plan.estimates[0].class_label == "G2"
        assert [t.plan_source for t in cached] == ["optimizer"] * 3
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 3
        assert cached_probes == fresh_probes == 2 * 3
        assert [t.execution.plan.describe() for t in cached] == [
            t.execution.plan.describe() for t in fresh
        ]


class TestTracing:
    def test_each_request_yields_one_connected_tree(self, serving_mdbs):
        """Every ticket's spans form a single tree rooted at its
        ``serving.request``."""
        server, _ = serving_mdbs
        config = ServingConfig(trace_id_prefix="t-")
        with obs.recording() as tracer:
            with ServingFrontEnd(server, config) as frontend:
                tickets = frontend.serve(query_mix())
        assert all(t.ok for t in tickets)
        for ticket in tickets:
            assert ticket.trace_id == f"t-q{ticket.index:06d}"
            spans = tracer.trace(ticket.trace_id)
            by_id = {s.span_id: s for s in spans}
            roots = [s for s in spans if s.parent_id is None]
            assert [r.name for r in roots] == ["serving.request"]
            for span in spans:
                # Every span's parent chain ends at the root: no orphans.
                seen = set()
                while span.parent_id is not None:
                    assert span.span_id not in seen
                    seen.add(span.span_id)
                    span = by_id[span.parent_id]
                assert span.name == "serving.request"
            names = {s.name for s in spans}
            assert {"serving.plan", "serving.execute"} <= names
            assert "serving.queue" not in names
            root = roots[0]
            assert root.attributes["status"] == "completed"

    def test_cache_off_plans_under_the_plan_span(self, serving_mdbs):
        """With the cache off the front end plans through
        ``server.optimize`` as well: the request's one ``mdbs.optimize``
        span sits under ``serving.plan``, not under ``mdbs.execute``."""
        server, _ = serving_mdbs
        with obs.recording() as tracer:
            with ServingFrontEnd(server, ServingConfig(plan_cache=False)) as frontend:
                [ticket] = frontend.serve(query_mix()[:1])
        spans = tracer.trace(ticket.trace_id)
        by_id = {s.span_id: s for s in spans}
        (optimize,) = [s for s in spans if s.name == "mdbs.optimize"]
        assert by_id[optimize.parent_id].name == "serving.plan"
        assert optimize.attributes["candidates"] == 2
        assert optimize.attributes["join_site"] == ticket.execution.plan.join_site

    def test_plan_spans_carry_decision_provenance(self, serving_mdbs):
        server, _ = serving_mdbs
        with obs.recording() as tracer:
            with ServingFrontEnd(server, ServingConfig()) as frontend:
                [first] = frontend.serve(query_mix()[:1])
                [repeat] = frontend.serve(query_mix()[:1])

        def plan_span(ticket):
            return next(
                s
                for s in tracer.trace(ticket.trace_id)
                if s.name == "serving.plan"
            )

        miss, hit = plan_span(first), plan_span(repeat)
        assert miss.attributes["source"] == "optimizer"
        assert miss.attributes["cache"] != "hit"
        assert hit.attributes["source"] == "cache"
        assert hit.attributes["cache"] == "hit"
        for attrs in (miss.attributes, hit.attributes):
            assert attrs["join_site"]
            assert attrs["estimated_seconds"] > 0.0
            assert ":" in attrs["models"]  # site/class=vN:form tags
        # The execute span pairs the estimate with the observed outcome.
        exec_span = next(
            s
            for s in tracer.trace(first.trace_id)
            if s.name == "serving.execute"
        )
        assert "estimated_seconds" in exec_span.attributes
        assert "observed_seconds" in exec_span.attributes

    def test_failed_request_records_its_whole_tree(self, serving_mdbs):
        """A failed request keeps every span it opened, and its root
        says how it ended: ``status="failed"`` and the exception type."""
        server, _ = serving_mdbs
        bad = GlobalJoinQuery("oracle_site", "R1", "db2_site", "NOPE", "a4", "a4")
        with obs.recording() as tracer:
            with ServingFrontEnd(server, ServingConfig()) as frontend:
                [ticket] = frontend.serve([bad])
        assert ticket.status == "failed"
        spans = tracer.trace(ticket.trace_id)
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.name == "serving.request"
        assert root.attributes["status"] == "failed"
        assert root.attributes["error"] == type(ticket.error).__name__
        # The whole tree, not a stub: the span that raised is there too,
        # under the root, naming the same exception.
        assert len(spans) > 1
        by_id = {s.span_id: s for s in spans}
        assert all(s is root or s.parent_id in by_id for s in spans)
        assert any(
            s is not root and s.attributes.get("error") == root.attributes["error"]
            for s in spans
        )

    def test_kept_set_is_identical_across_runs(self, serving_mdbs):
        """Two runs from the same saved state record the same span trees:
        ids, parents, trace ids, names and attributes."""
        server, sites = serving_mdbs
        start = {n: s.database.save_state() for n, s in sites.items()}
        queries = query_mix() * 4
        runs = []
        for _ in range(2):
            for name, site in sites.items():
                site.database.restore_state(start[name])
            server.probing.invalidate()
            with obs.recording(local_ids=True) as tracer:
                with ServingFrontEnd(server, ServingConfig()) as frontend:
                    tickets = frontend.serve(queries)
            assert all(t.ok for t in tickets)
            runs.append(
                [
                    (s.span_id, s.parent_id, s.trace_id, s.name, s.attributes)
                    for s in tracer.finished()
                ]
            )
        assert runs[0] == runs[1]
        # Every request is recorded: one root per ticket.
        roots = [span for span in runs[0] if span[3] == "serving.request"]
        assert [span[2] for span in roots] == [t.trace_id for t in tickets]


class TestLifecycle:
    def test_submit_requires_start(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig())
        with pytest.raises(RuntimeError):
            frontend.submit(query_mix()[0])

    def test_submit_after_close_raises(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig()).start()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.submit(query_mix()[0])

    def test_close_is_idempotent_and_start_after_close_raises(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig()).start()
        frontend.close()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.start()

    def test_failed_request_does_not_kill_its_worker(self, serving_mdbs):
        server, _ = serving_mdbs
        bad = GlobalJoinQuery("oracle_site", "R1", "db2_site", "NOPE", "a4", "a4")
        with ServingFrontEnd(server, ServingConfig()) as frontend:
            failed = frontend.serve([bad])[0]
            ok = frontend.serve(query_mix()[:1])[0]
            stats = frontend.stats()
        assert failed.status == "failed"
        assert isinstance(failed.error, Exception)
        assert ok.ok
        assert stats.failed == 1 and stats.completed == 1
