"""An LRU buffer pool: the engine's simulated memory hierarchy.

Without a buffer pool every page access costs a full (simulated) I/O, so
cost behaviour depends only on the query and the contention level.  With
one, repeated scans, index traversals, and join inner relations hit
memory on re-access — cost behaviour becomes *workload-history-
dependent*, which is exactly the kind of qualitative contention factor
the paper's multi-states method is built to absorb (the probing query
runs through the same pool, so its sampled cost reflects the cache
state; see DESIGN.md, "Memory hierarchy & vectorized execution").

Eviction is LRU refined by a *windowed refcount* (in the spirit of
mongodb-d4's ``fastlrubufferusingwindow``): a sliding window of the most
recent accesses keeps a per-page reference count, and eviction scans the
:data:`EVICT_SCAN` least-recently-used candidates for the one with the
fewest references in the window — a page touched often within the window
survives even when an unrelated scan has pushed it toward the cold end.
Ties break toward the least recently used page, so the whole policy is a
pure function of the access sequence (no clocks, no randomness, no
``id()``): two pools fed the same sequence always hold the same pages,
which is what makes parallel experiment runs byte-identical.

Page identity is an integer.  Each page *space* — a table's data pages
(``("T", table_name)``) or an index's B+-tree nodes (``("I",
index_name)``) — is interned on first use to a base ``k << 32``
(:meth:`BufferPool.page_space`), and a page's id is its space's base
plus its number: the data page number for a table, the node id for an
index (node ids are assigned in creation order by the tree, so they too
are deterministic).  The key is the *name*, never the object: a table
dropped and re-created under the same name lands in the same space, so
its pages hit whatever its predecessor left resident, exactly as tuple
keys ``("T", name, page)`` would.  Hashing those tuples was most of
the pool loop's time; an integer hashes to itself, and a sequential
sweep is a plain ``range``.  Spaces are never forgotten (:meth:`clear`,
:meth:`snapshot` and :meth:`restore` leave them alone); the policy loop
itself takes any hashable keys.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable

#: Pages examined from the cold end of the LRU chain at eviction time.
EVICT_SCAN = 8

#: Bits of a page id below its space's base: room for 2**32 pages per space.
PAGE_SPACE_BITS = 32

#: Default pool capacity in pages (4 MiB at the 8 KiB default page size).
DEFAULT_CAPACITY_PAGES = 512

#: Default sliding-window length (accesses) for the refcounts.
DEFAULT_WINDOW = 4096

#: Qualitative buffer-hit states, coldest first.  The thresholds below
#: map an observed hit rate onto these labels.
BUFFER_HIT_STATES: tuple[str, ...] = ("cold", "warm", "hot")

#: ``hit_rate < WARM_THRESHOLD`` is cold; ``< HOT_THRESHOLD`` warm.
WARM_THRESHOLD = 0.35
HOT_THRESHOLD = 0.70

PageKey = Hashable


def hit_state_label(hit_rate: float) -> str:
    """Map a hit rate in [0, 1] onto the qualitative state labels."""
    if not 0.0 <= hit_rate <= 1.0:
        raise ValueError("hit_rate must be in [0, 1]")
    if hit_rate < WARM_THRESHOLD:
        return BUFFER_HIT_STATES[0]
    if hit_rate < HOT_THRESHOLD:
        return BUFFER_HIT_STATES[1]
    return BUFFER_HIT_STATES[2]


@dataclass
class BufferPoolStats:
    """Cumulative counters over the pool's lifetime (or since reset)."""

    logical_reads: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.logical_reads if self.logical_reads else 0.0


class BufferPool:
    """A deterministic LRU page cache with windowed reference counts."""

    def __init__(
        self,
        capacity_pages: int = DEFAULT_CAPACITY_PAGES,
        window: int = DEFAULT_WINDOW,
        evict_scan: int = EVICT_SCAN,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be at least 1")
        if window < 1:
            raise ValueError("window must be at least 1")
        if evict_scan < 1:
            raise ValueError("evict_scan must be at least 1")
        self.capacity_pages = capacity_pages
        self.window = window
        self.evict_scan = evict_scan
        #: Resident pages in LRU order: first = least recently used.
        self._pages: OrderedDict[PageKey, None] = OrderedDict()
        #: Sliding window of the most recent accesses, oldest first.
        self._recent: deque[PageKey] = deque()
        #: Reference counts of pages inside the window.
        self._refcounts: dict[PageKey, int] = {}
        #: Base page id of each (kind, name) page space, in first-use order.
        self._spaces: dict[tuple[str, str], int] = {}
        self.stats = BufferPoolStats()

    # -- core access --------------------------------------------------------

    def page_space(self, kind: str, name: str) -> int:
        """The id of page 0 of *name*'s pages (*kind* ``"T"`` or ``"I"``).

        Page ``p`` of the space is ``page_space(kind, name) + p``.
        """
        key = (kind, name)
        base = self._spaces.get(key)
        if base is None:
            base = self._spaces[key] = len(self._spaces) << PAGE_SPACE_BITS
        return base

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._pages

    def access(self, key: PageKey) -> bool:
        """Touch one page; returns True on a hit, False on a miss."""
        return self.access_many((key,))[0] == 1

    def access_many(self, keys: Iterable[PageKey]) -> tuple[int, int]:
        """Touch *keys* in order; returns ``(hits, misses)``.

        Every touch enters the sliding window.  A miss installs the
        page, evicting (if the pool is full) the candidate among the
        :attr:`evict_scan` least-recently-used resident pages with the
        smallest windowed refcount; candidates are taken in LRU order
        and the scan keeps the *first* minimum, so ties evict the least
        recently used.  This is the only place the policy lives: one
        loop, with the pool's state in locals.
        """
        pages, recent, refcounts = self._pages, self._recent, self._refcounts
        capacity, window, evict_scan = self.capacity_pages, self.window, self.evict_scan
        hits = misses = evictions = 0
        try:
            for key in keys:
                recent.append(key)
                refcounts[key] = refcounts.get(key, 0) + 1
                if len(recent) > window:
                    old = recent.popleft()
                    remaining = refcounts[old] - 1
                    if remaining:
                        refcounts[old] = remaining
                    else:
                        del refcounts[old]
                if key in pages:
                    pages.move_to_end(key)
                    hits += 1
                    continue
                misses += 1
                if len(pages) >= capacity:
                    victim = None
                    victim_refs = -1
                    for candidate in islice(pages, evict_scan):
                        refs = refcounts.get(candidate, 0)
                        if victim is None or refs < victim_refs:
                            victim, victim_refs = candidate, refs
                    del pages[victim]
                    evictions += 1
                pages[key] = None
        finally:
            stats = self.stats
            stats.logical_reads += hits + misses
            stats.hits += hits
            stats.misses += misses
            stats.evictions += evictions
        return hits, misses

    # -- management -------------------------------------------------------

    def clear(self) -> None:
        """Drop every resident page and the access window (stats remain)."""
        self._pages.clear()
        self._recent.clear()
        self._refcounts.clear()

    def reset_stats(self) -> None:
        self.stats = BufferPoolStats()

    def snapshot(self) -> dict:
        """Capture resident pages, window, and stats for a later rewind."""
        return {
            "pages": list(self._pages),
            "recent": list(self._recent),
            "refcounts": dict(self._refcounts),
            "stats": dataclasses.replace(self.stats),
        }

    def restore(self, state: dict) -> None:
        """Rewind to a state captured with :meth:`snapshot`."""
        self._pages = OrderedDict((key, None) for key in state["pages"])
        self._recent = deque(state["recent"])
        self._refcounts = dict(state["refcounts"])
        self.stats = dataclasses.replace(state["stats"])

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    def hit_state(self) -> str:
        """The pool's current qualitative buffer-hit state label.

        Read beside every recorded plan step, so the hit rate is taken
        from the counters here rather than through :attr:`hit_rate`.
        """
        stats = self.stats
        reads = stats.logical_reads
        return hit_state_label(stats.hits / reads if reads else 0.0)

    def resident_keys(self) -> list[PageKey]:
        """Resident page keys in LRU order (coldest first) — for tests."""
        return list(self._pages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({len(self._pages)}/{self.capacity_pages} pages, "
            f"hit_rate={self.hit_rate:.2f})"
        )


def data_page_of(row_id: int, rows_per_page: int) -> int:
    """The data page holding *row_id* under a dense packing."""
    return row_id // rows_per_page


# ---------------------------------------------------------------------------
# Metric charging
#
# Access methods charge their page work through these two helpers so the
# pool-off path stays byte-identical to the pre-buffer-pool accounting
# (a plain count) while the pool-on path plays concrete page ids
# through the cache and charges I/O only for misses.
# ---------------------------------------------------------------------------


def charge_sequential_pages(
    metrics,
    pool: "BufferPool | None",
    table_name: str,
    num_pages: int,
    start_page: int = 0,
) -> None:
    """Charge a (partial) sequential sweep of a table's data pages."""
    metrics.logical_page_reads += num_pages
    if pool is None:
        metrics.sequential_page_reads += num_pages
        return
    first = pool.page_space("T", table_name) + start_page
    hits, misses = pool.access_many(range(first, first + num_pages))
    metrics.buffer_hits += hits
    metrics.sequential_page_reads += misses


def charge_random_pages(
    metrics,
    pool: "BufferPool | None",
    keys: Iterable[PageKey] | None = None,
    count: int = 0,
) -> None:
    """Charge random page reads.

    Without a pool, ``count`` pages are charged directly (the classic
    amortized formulas).  With a pool, the concrete *keys* (page ids, see
    :meth:`BufferPool.page_space`) are played through the cache instead —
    repeat touches of a resident page become buffer hits, which subsumes
    the formulas' amortization.
    """
    if pool is None:
        metrics.random_page_reads += count
        metrics.logical_page_reads += count
        return
    assert keys is not None, "pool-backed charging needs concrete page keys"
    hits, misses = pool.access_many(keys)
    metrics.logical_page_reads += hits + misses
    metrics.buffer_hits += hits
    metrics.random_page_reads += misses
