"""The buffer pool: LRU + windowed refcounts, charging, engine wiring."""

import pytest

from repro.engine.buffer import (
    BUFFER_HIT_STATES,
    BufferPool,
    HOT_THRESHOLD,
    WARM_THRESHOLD,
    charge_random_pages,
    charge_sequential_pages,
    data_page_of,
    hit_state_label,
)
from repro.engine.database import LocalDatabase
from repro.engine.metrics import ExecutionMetrics
from repro.engine.schema import Column
from repro.engine.types import DataType


class TestHitStates:
    def test_thresholds_partition_the_unit_interval(self):
        assert hit_state_label(0.0) == "cold"
        assert hit_state_label(WARM_THRESHOLD - 1e-9) == "cold"
        assert hit_state_label(WARM_THRESHOLD) == "warm"
        assert hit_state_label(HOT_THRESHOLD - 1e-9) == "warm"
        assert hit_state_label(HOT_THRESHOLD) == "hot"
        assert hit_state_label(1.0) == "hot"

    def test_rejects_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            hit_state_label(-0.01)
        with pytest.raises(ValueError):
            hit_state_label(1.01)


class TestBufferPool:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            BufferPool(capacity_pages=0)
        with pytest.raises(ValueError):
            BufferPool(window=0)
        with pytest.raises(ValueError):
            BufferPool(evict_scan=0)

    def test_hit_then_miss_accounting(self):
        pool = BufferPool(capacity_pages=4)
        assert pool.access("a") is False
        assert pool.access("a") is True
        assert pool.access("b") is False
        assert pool.stats.logical_reads == 3
        assert pool.stats.hits == 1
        assert pool.stats.misses == 2
        assert pool.hit_rate == pytest.approx(1 / 3)
        assert len(pool) == 2 and "a" in pool and "c" not in pool

    def test_capacity_is_respected_and_lru_evicts(self):
        pool = BufferPool(capacity_pages=3, evict_scan=1)
        pool.access_many(["a", "b", "c"])
        pool.access("a")  # a becomes most recent; b is now coldest
        pool.access("d")  # evicts b
        assert len(pool) == 3
        assert "b" not in pool and all(k in pool for k in "acd")
        assert pool.stats.evictions == 1

    def test_windowed_refcount_protects_hot_page(self):
        # "h" is touched often; a one-pass scan of cold pages must evict
        # the scan's own pages, not the hot one.
        pool = BufferPool(capacity_pages=4, evict_scan=4)
        for _ in range(5):
            pool.access("h")
        pool.access_many(["s1", "s2", "s3"])  # pool now full, h is LRU-coldest
        pool.access("s4")
        assert "h" in pool  # refcount 5 beats the scan pages' 1
        assert "s1" not in pool

    def test_eviction_tie_breaks_toward_lru(self):
        pool = BufferPool(capacity_pages=3, evict_scan=3)
        pool.access_many(["a", "b", "c"])  # all refcounts equal
        pool.access("d")
        assert "a" not in pool  # first minimum = least recently used

    def test_determinism_pure_function_of_access_sequence(self):
        sequence = [("T", "r", i % 7) for i in range(200)] + [
            ("I", "ix", i % 5) for i in range(100)
        ]
        a = BufferPool(capacity_pages=6, window=32)
        b = BufferPool(capacity_pages=6, window=32)
        for key in sequence:
            a.access(key)
        b.access_many(sequence)
        assert a.resident_keys() == b.resident_keys()
        assert a.stats == b.stats

    def test_snapshot_restore_rewinds_exactly(self):
        pool = BufferPool(capacity_pages=4, window=16)
        pool.access_many(["a", "b", "c"])
        saved = pool.snapshot()
        pool.access_many(["d", "e", "f", "a"])
        pool.restore(saved)
        twin = BufferPool(capacity_pages=4, window=16)
        twin.access_many(["a", "b", "c"])
        assert pool.resident_keys() == twin.resident_keys()
        assert pool.stats == twin.stats
        # Replaying the same future from the restored state matches too.
        pool.access_many(["d", "e", "f", "a"])
        twin.access_many(["d", "e", "f", "a"])
        assert pool.resident_keys() == twin.resident_keys()
        assert pool.stats == twin.stats

    def test_clear_drops_pages_but_keeps_stats(self):
        pool = BufferPool(capacity_pages=4)
        pool.access_many(["a", "b"])
        pool.clear()
        assert len(pool) == 0
        assert pool.stats.logical_reads == 2
        pool.reset_stats()
        assert pool.stats.logical_reads == 0

    def test_page_key_helpers(self):
        pool = BufferPool(capacity_pages=4)
        table, index = pool.page_space("T", "r"), pool.page_space("I", "r")
        assert table != index  # a table and an index may share a name
        assert pool.page_space("T", "r") == table  # interned by name
        assert abs(pool.page_space("T", "s") - table) >= 2**32
        assert data_page_of(0, 10) == 0
        assert data_page_of(19, 10) == 1


class TestCharging:
    def test_pool_off_sequential_matches_classic_count(self):
        metrics = ExecutionMetrics()
        charge_sequential_pages(metrics, None, "r", 7)
        assert metrics.sequential_page_reads == 7
        assert metrics.logical_page_reads == 7
        assert metrics.buffer_hits == 0

    def test_pool_off_random_matches_classic_count(self):
        metrics = ExecutionMetrics()
        charge_random_pages(metrics, None, count=5)
        assert metrics.random_page_reads == 5
        assert metrics.logical_page_reads == 5

    def test_pool_on_second_sweep_hits_memory(self):
        pool = BufferPool(capacity_pages=16)
        cold = ExecutionMetrics()
        charge_sequential_pages(cold, pool, "r", 8)
        warm = ExecutionMetrics()
        charge_sequential_pages(warm, pool, "r", 8)
        assert cold.sequential_page_reads == 8 and cold.buffer_hits == 0
        assert warm.sequential_page_reads == 0 and warm.buffer_hits == 8
        assert warm.logical_page_reads == 8
        assert warm.buffer_hit_rate == 1.0

    def test_pool_on_random_plays_concrete_keys(self):
        pool = BufferPool(capacity_pages=16)
        metrics = ExecutionMetrics()
        charge_random_pages(metrics, pool, keys=[("T", "r", 0), ("T", "r", 0)])
        assert metrics.random_page_reads == 1  # second touch is a hit
        assert metrics.buffer_hits == 1
        assert metrics.logical_page_reads == 2


def _tiny_db(buffer_pages):
    db = LocalDatabase("buf_db", noise_sigma=0.0, seed=1, buffer_pages=buffer_pages)
    rows = [(i, i % 10) for i in range(400)]
    db.create_table("t", [Column("a", DataType.INT), Column("b", DataType.INT)], rows)
    db.catalog.table("t").analyze()
    return db


class TestDatabaseWiring:
    def test_rescan_hits_buffer(self):
        db = _tiny_db(buffer_pages=64)
        cold = db.execute("select a from t where b < 5")
        warm = db.execute("select a from t where b < 5")
        assert cold.metrics.buffer_hits == 0
        assert warm.metrics.buffer_hits == warm.metrics.logical_page_reads
        assert warm.metrics.total_page_reads == 0
        assert warm.result.rows == cold.result.rows
        assert db.buffer_pool.hit_state() in BUFFER_HIT_STATES

    def test_pool_off_accounting_unchanged(self):
        with_pool = _tiny_db(buffer_pages=64)
        without = _tiny_db(buffer_pages=None)
        r_pool = with_pool.execute("select a from t where b < 5")
        r_plain = without.execute("select a from t where b < 5")
        # Cold pool: every logical read is physical, so the physical
        # counts match the classic statistical accounting exactly.
        assert r_pool.metrics.total_page_reads == r_plain.metrics.total_page_reads
        assert r_pool.result.rows == r_plain.result.rows
        assert without.buffer_pool is None

    def test_save_restore_state_includes_pool(self):
        db = _tiny_db(buffer_pages=64)
        db.execute("select a from t where b < 5")
        saved = db.save_state()
        resident = db.buffer_pool.resident_keys()
        db.execute("select a from t where b >= 5")
        db.restore_state(saved)
        assert db.buffer_pool.resident_keys() == resident
        # Re-executing from the rewound state reproduces the same hits.
        again = db.execute("select a from t where b >= 5")
        db.restore_state(saved)
        twice = db.execute("select a from t where b >= 5")
        assert again.metrics == twice.metrics
