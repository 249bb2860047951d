"""Guard: disabled (no-op) instrumentation is ~free on engine hot paths."""

import time

from repro import obs


def best_of(runs, fn):
    """Minimum per-iteration time over several runs (noise-robust)."""
    best = float("inf")
    for _ in range(runs):
        best = min(best, fn())
    return best


class TestNoopOverhead:
    def test_disabled_tracer_under_5pct_of_tight_engine_loop(self, small_database):
        """The no-op span machinery must cost < 5% of one engine query.

        ``LocalDatabase.execute`` contains a single span call site and
        records no metric, so the disabled-tracer overhead per query is
        one no-op ``with`` block.  We budget for 3 of them: headroom for
        denser future instrumentation without making the bound so tight
        that scheduler noise under a full-suite run can trip it.
        """
        assert not obs.enabled()
        query = small_database.parse("select a from t1 where a < 100")
        for _ in range(10):  # warmup
            small_database.execute(query)

        def time_engine():
            n = 60
            started = time.perf_counter()
            for _ in range(n):
                small_database.execute(query)
            return (time.perf_counter() - started) / n

        def time_noop_span():
            n = 20_000
            started = time.perf_counter()
            for _ in range(n):
                with obs.span("overhead-probe"):
                    pass
            return (time.perf_counter() - started) / n

        engine_seconds = best_of(3, time_engine)
        noop_seconds = best_of(3, time_noop_span)
        assert noop_seconds * 3 < 0.05 * engine_seconds, (
            f"no-op span costs {noop_seconds * 1e6:.2f}us; tight engine loop "
            f"iteration is {engine_seconds * 1e6:.1f}us — budget exceeded"
        )

    def test_noop_span_allocates_nothing_new(self):
        first = obs.span("a", x=1)
        second = obs.span("b")
        assert first is second  # the shared singleton


class TestAccuracyTrackingOverhead:
    def test_recording_under_5pct_of_plan_execution_floor(self, small_database, fresh_registry):
        """Per-plan accuracy recording must cost < 5% of plan execution.

        ``MDBSServer.execute`` records one accuracy sample per plan step
        that carries a class label — at most 3 for a binary join plan
        (the ship step has none), each beside a read of the site's
        buffer-hit state — plus one ``mdbs.global_queries`` counter
        increment.  The hit state is timed on a pooled site, the branch
        that computes a label.

        The executed plan runs 4 engine steps: two local selects, a ship
        that loads both results as temp tables, and a join over them.
        On a plan-cache hit the two selects are charges of kept runs
        only (``KeptRuns``), far cheaper than running a select, so the
        floor is the smaller of 4x the tight-loop select and a hit's
        engine steps timed here — two charges plus ship, join and drop
        of the temp tables on the same database.  On a 2-core Linux box
        the hit's steps came to 4.2x select and a whole hit-path
        ``MDBSServer.execute`` to 10.5x, so the floor is a lower bound
        on the work the recording rides along with either way.
        """
        from repro.engine.database import LocalDatabase
        from repro.engine.predicate import Comparison
        from repro.engine.query import JoinQuery, SelectQuery
        from repro.engine.schema import Column
        from repro.engine.types import DataType
        from repro.mdbs.agent import MDBSAgent
        from repro.obs.quality import AccuracyTracker

        tracker = AccuracyTracker(export=False)
        pooled = LocalDatabase("pooled", buffer_pages=8)
        pooled.create_table("t", [Column("a", DataType.INT)], [(1,)])
        agent = MDBSAgent(pooled)
        assert agent.buffer_hit_state() is not None
        query = small_database.parse("select a from t1 where a < 100")
        kept = small_database.run(query)
        site = MDBSAgent(small_database)
        shipped = [
            (name, columns, site.execute(SelectQuery(table, columns, predicate)).result)
            for name, table, columns, predicate in (
                ("tl", "t1", ("a", "b"), Comparison("a", "<", 100)),
                ("tr", "t2", ("b", "c"), Comparison("c", "<", 2)),
            )
        ]
        join = JoinQuery("tl", "tr", "b", "b")

        def time_engine(n=60):
            started = time.perf_counter()
            for _ in range(n):
                small_database.execute(query)
            return (time.perf_counter() - started) / n

        def time_charge(n=2_000):
            started = time.perf_counter()
            for _ in range(n):
                small_database.charge(kept)
            return (time.perf_counter() - started) / n

        def time_ship_and_join(n=60):
            started = time.perf_counter()
            for _ in range(n):
                for name, columns, result in shipped:
                    site.create_temp_table(name, columns, (4, 4), result)
                site.execute(join)
                for name, _, _ in shipped:
                    site.drop_temp_table(name)
            return (time.perf_counter() - started) / n

        def time_record(n=20_000):
            started = time.perf_counter()
            for i in range(n):
                tracker.record("site", "G1", i % 3, predicted=1.0, actual=1.1, at_time=float(i))
            return (time.perf_counter() - started) / n

        def time_hit_state(n=20_000):
            started = time.perf_counter()
            for _ in range(n):
                agent.buffer_hit_state()
            return (time.perf_counter() - started) / n

        def time_count(n=20_000):
            started = time.perf_counter()
            for _ in range(n):
                obs.inc("mdbs.global_queries")
            return (time.perf_counter() - started) / n

        terms = {
            "select": time_engine,
            "charge": time_charge,
            "ship and join": time_ship_and_join,
            "record": time_record,
            "hit state": time_hit_state,
            "inc": time_count,
        }
        for timer in terms.values():  # warmup
            timer(10)
        # Every term is timed once per round, in the same rounds, and each
        # keeps its best round: a slow stretch of the machine slows the
        # engine loop and the recording loops alike.
        best = dict.fromkeys(terms, float("inf"))
        for _ in range(5):
            for name, timer in terms.items():
                best[name] = min(best[name], timer())

        per_plan = 3 * (best["record"] + best["hit state"]) + best["inc"]
        hit = 2 * best["charge"] + best["ship and join"]
        floor = min(4 * best["select"], hit)
        assert per_plan < 0.05 * floor, (
            f"per-plan accuracy recording costs {per_plan * 1e6:.2f}us "
            f"(3 x (record {best['record'] * 1e6:.2f}us + hit state "
            f"{best['hit state'] * 1e6:.2f}us) + inc {best['inc'] * 1e6:.2f}us); "
            f"5% of the plan-execution floor (the smaller of 4 x select "
            f"{4 * best['select'] * 1e6:.2f}us and a cache hit's steps "
            f"{hit * 1e6:.2f}us) is {0.05 * floor * 1e6:.2f}us — budget exceeded"
        )
