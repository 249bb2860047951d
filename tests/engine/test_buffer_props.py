"""Property tests for the buffer pool: snapshot/restore round-trips, the
one policy loop (``access_many``) against the policy written out, and
integer page ids against the ``(kind, name, page)`` tuples they replaced.

The engine-hotpaths bench and the hermetic serving fixtures both lean on
``snapshot()``/``restore()`` rewinding a pool *exactly*: after a rewind,
replaying any future access sequence must produce the byte-identical
hit/miss ledger the first playthrough produced — over any capacity,
window shape, and access pattern, which is what Hypothesis sweeps here.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.buffer import BufferPool, PAGE_SPACE_BITS
from repro.engine.database import LocalDatabase
from repro.engine.schema import Column
from repro.engine.types import DataType

#: A tiny key universe forces evictions and window churn at small sizes.
keys = st.integers(0, 30)
sequences = st.lists(keys, max_size=200)
pools = st.builds(
    BufferPool,
    capacity_pages=st.integers(1, 12),
    window=st.integers(1, 64),
    evict_scan=st.integers(1, 8),
)


def ledger(pool: BufferPool, sequence) -> list[bool]:
    return [pool.access(key) for key in sequence]


def observable_state(pool: BufferPool) -> tuple:
    return (
        pool.resident_keys(),
        dataclasses.astuple(pool.stats),
        pool.hit_state(),
    )


@settings(max_examples=120, deadline=None)
@given(pool=pools, prefix=sequences, suffix=sequences)
def test_restore_replays_identical_ledger(pool, prefix, suffix):
    ledger(pool, prefix)
    saved = pool.snapshot()
    first = ledger(pool, suffix)
    after_first = observable_state(pool)

    pool.restore(saved)
    second = ledger(pool, suffix)

    assert second == first
    assert observable_state(pool) == after_first


@settings(max_examples=60, deadline=None)
@given(pool=pools, prefix=sequences, garbage=sequences)
def test_snapshot_is_isolated_from_later_mutation(pool, prefix, garbage):
    """The saved state is a copy: later accesses must not bleed into it."""
    ledger(pool, prefix)
    saved = pool.snapshot()
    at_save = observable_state(pool)

    ledger(pool, garbage)
    pool.clear()
    pool.reset_stats()

    pool.restore(saved)
    assert observable_state(pool) == at_save


@settings(max_examples=60, deadline=None)
@given(pool=pools, sequence=sequences)
def test_two_pools_fed_the_same_sequence_agree(pool, sequence):
    """Determinism: the policy is a pure function of the access order."""
    twin = BufferPool(
        capacity_pages=pool.capacity_pages,
        window=pool.window,
        evict_scan=pool.evict_scan,
    )
    assert ledger(pool, sequence) == ledger(twin, sequence)
    assert observable_state(pool) == observable_state(twin)


class ReferencePool:
    """The policy one touch at a time, as the pool's module doc states it:
    note the access in the window, hit or install, evict the first
    minimum-refcount page among the ``evict_scan`` coldest.  Written for
    reading, not speed — ``access_many`` is the loop that has to agree."""

    def __init__(self, capacity_pages, window, evict_scan):
        self.capacity_pages, self.window, self.evict_scan = capacity_pages, window, evict_scan
        self.pages, self.recent, self.refcounts = [], [], {}
        self.logical_reads = self.hits = self.misses = self.evictions = 0

    def access(self, key) -> bool:
        self.logical_reads += 1
        self.recent.append(key)
        self.refcounts[key] = self.refcounts.get(key, 0) + 1
        if len(self.recent) > self.window:
            old = self.recent.pop(0)
            self.refcounts[old] -= 1
            if not self.refcounts[old]:
                del self.refcounts[old]
        if key in self.pages:
            self.pages.remove(key)
            self.pages.append(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(self.pages) >= self.capacity_pages:
            candidates = self.pages[: self.evict_scan]
            fewest = min(self.refcounts.get(page, 0) for page in candidates)
            self.pages.remove(
                next(p for p in candidates if self.refcounts.get(p, 0) == fewest)
            )
            self.evictions += 1
        self.pages.append(key)
        return False


@settings(max_examples=150, deadline=None)
@given(pool=pools, batches=st.lists(sequences, max_size=4))
def test_access_many_is_access_key_by_key(pool, batches):
    """One sweep per batch ≡ one touch per key ≡ the policy as written:
    same hits and misses, residents in the same LRU order, same stats,
    same snapshot — so charging a sweep at a time changes no ledger."""
    config = (pool.capacity_pages, pool.window, pool.evict_scan)
    one_by_one, reference = BufferPool(*config), ReferencePool(*config)
    for batch in batches:
        hits, misses = pool.access_many(iter(batch))
        touched = [one_by_one.access(key) for key in batch]
        assert touched == [reference.access(key) for key in batch]
        assert (hits, misses) == (touched.count(True), touched.count(False))
    assert pool.resident_keys() == one_by_one.resident_keys() == reference.pages
    assert pool.stats == one_by_one.stats
    assert dataclasses.astuple(pool.stats) == (
        reference.logical_reads, reference.hits, reference.misses, reference.evictions
    )
    assert pool.snapshot() == one_by_one.snapshot()
    assert pool.snapshot()["recent"] == reference.recent
    assert pool.snapshot()["refcounts"] == reference.refcounts


#: (kind, name, page) touches over a few page spaces; a table and an index
#: may share a name.
page_touches = st.lists(
    st.tuples(st.sampled_from("TI"), st.sampled_from(["r", "s", "_w"]), st.integers(0, 9)),
    max_size=60,
)


def decoder(pool: BufferPool, names):
    """Map the pool's integer page ids over *names*' spaces back to the
    ``(kind, name, page)`` tuples they stand for."""
    spaces = {pool.page_space(kind, name): (kind, name) for kind in "TI" for name in names}

    def decode(key: int) -> tuple:
        page = key & (2**PAGE_SPACE_BITS - 1)
        return (*spaces[key - page], page)

    return decode


@settings(max_examples=150, deadline=None)
@given(pool=pools, batches=st.lists(page_touches, max_size=5))
def test_integer_page_ids_behave_as_tuple_keys(pool, batches):
    """Keying pages by ``page_space(kind, name) + page`` instead of by the
    tuple ``(kind, name, page)`` changes no per-call hit/miss count, no
    eviction and no resident order: the ids are a one-to-one renaming."""
    config = (pool.capacity_pages, pool.window, pool.evict_scan)
    by_tuple = BufferPool(*config)
    for batch in batches:
        ids = [pool.page_space(kind, name) + page for kind, name, page in batch]
        assert pool.access_many(ids) == by_tuple.access_many(batch)
    assert pool.stats == by_tuple.stats
    decode = decoder(pool, ["r", "s", "_w"])
    assert list(map(decode, pool.resident_keys())) == by_tuple.resident_keys()


class RecordingPool(BufferPool):
    """A pool that keeps every ``access_many`` call and its answer."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.calls: list[tuple[list, tuple[int, int]]] = []

    def access_many(self, keys):
        keys = list(keys)
        answer = super().access_many(keys)
        self.calls.append((keys, answer))
        return answer


COLUMNS = [Column(name, DataType.INT) for name in ("a", "b")]
write_rows = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=120)
engine_ops = st.lists(
    st.one_of(
        st.tuples(st.just("recreate"), write_rows),
        st.tuples(st.just("scan"), st.integers(0, 60)),
        st.tuples(st.just("join"), st.integers(0, 60)),
        st.tuples(st.just("index_scan"), st.integers(0, 60)),
        st.tuples(st.just("clustered_scan"), st.integers(0, 60)),
    ),
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(capacity=st.integers(2, 24), ops=engine_ops)
def test_engine_page_ids_replay_as_tuple_keys(capacity, ops):
    """Every page the engine plays through its pool — sequential sweeps,
    index traversals, non-clustered fetches, index nested-loop probes,
    over a write table dropped and re-created under one name — decodes
    to a (kind, name, page) sequence that a tuple-keyed pool answers
    call for call, ending with the same evictions and resident order.
    A re-created table lands in its predecessor's page space, so it hits
    the pages its predecessor left resident, as tuple keys did."""
    db = LocalDatabase("ids", noise_sigma=0.0)
    db.buffer_pool = pool = RecordingPool(capacity)
    rows = [(i % 61, (i * 7) % 61) for i in range(400)]
    db.create_table("r", COLUMNS, rows)
    db.create_index("r_a", "r", "a")
    db.create_table("c", COLUMNS, rows)
    db.create_index("c_b", "c", "b", clustered=True)
    for kind, arg in ops:
        if kind == "recreate":
            if db.catalog.has_table("_w"):
                db.catalog.drop_table("_w")
            db.create_table("_w", COLUMNS, arg)
        elif kind == "scan" and db.catalog.has_table("_w"):
            db.execute(f"select a from _w where b < {arg}")
        elif kind == "join" and db.catalog.has_table("_w"):
            db.execute(f"select _w.b, r.b from _w join r on _w.a = r.a where _w.b < {arg}")
        elif kind == "index_scan":
            db.execute(f"select b from r where a >= {arg} and a <= {arg + 2}")
        elif kind == "clustered_scan":
            db.execute(f"select a from c where b > {arg} and b < {arg + 9}")

    decode = decoder(pool, ["r", "c", "_w", "r_a", "c_b"])
    by_tuple = BufferPool(capacity)
    for keys, answer in pool.calls:
        assert by_tuple.access_many(map(decode, keys)) == answer
    assert pool.stats == by_tuple.stats
    assert list(map(decode, pool.resident_keys())) == by_tuple.resident_keys()
