"""Secondary and clustered indexes over :class:`~repro.engine.table.Table`.

An index is a B+-tree on one column.  Two kinds exist:

* **clustered** — the table's rows are physically sorted on the key, so a
  range scan touches only the pages holding qualifying rows;
* **non-clustered** — row ids point anywhere in the heap, so each
  qualifying tuple costs (up to) one random page read, moderated by the
  *clustering ratio* (fraction of index-order-adjacent rows that happen to
  share a page).  The paper lists the index clustering ratio among the
  occasionally-changing factors; it is measured, not assumed.

The tree is a build-time shape (:mod:`repro.engine.btree`): each
distinct key inserted once, in order of first occurrence, which fixes
the height and the node ids a descent visits.  What the index keeps are
read-only arrays — the sorted distinct keys, the row ids grouped by key
(each group in row order, ``starts`` marking where each begins), each
leaf's first key (as a position among the keys) and each leaf's
root-to-leaf node ids — shared by every fork.

Every read is a ``searchsorted`` over the keys that answers as Python's
comparison would (:func:`_position`): int64, float64 (a column holds no
NaN) and object (string) keys compare as Python does, and a bound of the
other numeric kind is first replaced exactly by the key that splits the
keys where it does (:func:`~repro.engine.types.key_split`, the rule
predicates apply to their constants).
"""

from __future__ import annotations

import copy
import enum
from typing import Any

import numpy as np

from .btree import BPlusTree
from .errors import CatalogError
from .table import Table
from .types import key_split

_INT64 = np.iinfo(np.int64)


def _position(keys: np.ndarray, value: Any, side: str) -> int:
    """``bisect_left`` / ``bisect_right`` (*side*) of *value* in *keys*,
    under Python's comparison.

    *value* is first replaced exactly by the key-dtype value that splits
    the keys where it does (:func:`~repro.engine.types.key_split`); a
    split beyond int64 splits int keys at an end.
    """
    value = key_split(keys.dtype.kind, value, side)
    if keys.dtype.kind == "i":
        if value > _INT64.max:
            return len(keys)
        if value < _INT64.min:
            return 0
    return int(keys.searchsorted(value, side))


def _search(keys: np.ndarray, probes: np.ndarray, side: str) -> np.ndarray:
    """:func:`_position` of each of *probes*, at once where numpy can.

    Probes of the keys' own dtype compare exactly as Python does; probes
    of the other numeric kind go one at a time.
    """
    if probes.dtype == keys.dtype:
        return keys.searchsorted(probes, side)
    return np.array([_position(keys, v, side) for v in probes.tolist()], dtype=np.intp)


class IndexKind(enum.Enum):
    CLUSTERED = "clustered"
    NONCLUSTERED = "nonclustered"


class Index:
    """A single-column B+-tree index.

    Immutable once constructed: the arrays are built and the clustering
    ratio measured in ``__init__``; nothing edits either afterwards.  A
    table change is followed by ``LocalDatabase._rebuild_indexes``, which
    constructs new ``Index`` objects — which is what lets :meth:`fork`
    share the arrays between any number of catalogs.
    """

    def __init__(
        self,
        name: str,
        table: Table,
        column_name: str,
        kind: IndexKind,
        order: int = 64,
    ) -> None:
        if column_name not in table.schema:
            raise CatalogError(
                f"index {name}: table {table.name} has no column {column_name}"
            )
        if kind is IndexKind.CLUSTERED and table.clustered_on != column_name:
            raise CatalogError(
                f"index {name}: table {table.name} is not clustered on {column_name}"
            )
        self.name = name
        self.table = table
        self.column_name = column_name
        self.kind = kind
        self._build(table.column_array(column_name), order)
        self._clustering_ratio = self._measure_clustering_ratio()

    def _build(self, column: np.ndarray, order: int) -> None:
        """Group the row ids by key, then insert each key's rank once,
        in order of first occurrence, and keep the tree's shape.

        A stable sort groups equal keys with their row ids in row order,
        so each group's first row id is the key's first occurrence.
        """
        row_ids = np.argsort(column, kind="stable")
        ordered = column[row_ids]
        new_key = np.ones(len(ordered), dtype=bool)
        new_key[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(new_key)
        keys = ordered[starts]
        tree = BPlusTree(order=order)
        for rank in np.argsort(row_ids[starts]).tolist():
            tree.insert(rank)
        leaf_starts, leaf_paths = tree.leaves()
        self.height = tree.height
        self._keys = keys
        self._starts = np.append(starts, len(ordered))
        self._row_ids = row_ids
        self._leaf_starts = leaf_starts
        self._leaf_paths = leaf_paths
        for array in (self._keys, self._starts, row_ids, leaf_starts, leaf_paths):
            array.setflags(write=False)

    def fork(self, table: Table) -> "Index":
        """This index over *table*, a fork of the table it was built on.

        The fork's ``table`` is *table*; the read-only arrays (node ids
        and all) and the measured clustering ratio are shared, since
        equal rows in equal physical order index identically.
        """
        fork = copy.copy(self)
        fork.table = table
        return fork

    # -- lookups ------------------------------------------------------------

    def probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One exact-match descent per key of *keys*, in their order.

        Returns the matching row ids of all keys, concatenated (each
        key's in row order), how many each key matched, and the node ids
        each descent visits (one row per key, root first).
        """
        first = self._starts[_search(self._keys, keys, "left")]
        below = _search(self._keys, keys, "right")
        counts = self._starts[below] - first
        ends = counts.cumsum()
        # Each key's range of row ids, concatenated: position t of the
        # output lies in key i's range at first[i] + t - (ends[i] - counts[i]).
        offsets = (first - ends + counts).repeat(counts)
        row_ids = self._row_ids[offsets + np.arange(len(offsets))]
        return row_ids, counts, self._leaf_paths[self._leaf_of(below)]

    def _leaf_of(self, below):
        """The leaf a descent reaches, given how many keys are <= its target:
        the last leaf whose first key is among them (or the first leaf)."""
        return np.maximum(self._leaf_starts.searchsorted(below - 1, "right") - 1, 0)

    def range_lookup(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row ids with key in the given interval, in key order (a read-only slice)."""
        first = 0
        if low is not None:
            first = _position(self._keys, low, "left" if low_inclusive else "right")
        end = len(self._keys)
        if high is not None:
            end = _position(self._keys, high, "right" if high_inclusive else "left")
        return self._row_ids[self._starts[first] : self._starts[max(first, end)]]

    def traversal_path(self, key: Any = None) -> list[int]:
        """Node ids of one root→leaf traversal toward *key*.

        One id per tree level (``len == height``); ``key=None`` descends
        to the leftmost leaf (the entry point of a full-range scan).
        Repeated traversals share the upper levels, which is why a warm
        pool makes index probes nearly free.  A node's buffer-pool page
        id is its id plus the index's page space
        (:meth:`BufferPool.page_space`).
        """
        leaf = 0 if key is None else self._leaf_of(_position(self._keys, key, "right"))
        return self._leaf_paths[leaf].tolist()

    # -- physical statistics -----------------------------------------------------

    def clustering_ratio(self) -> float:
        """Fraction of index-order-adjacent row pairs that share a page.

        1.0 for a freshly clustered index; near 0 for an index over a
        randomly ordered heap with many pages.  Measured once, when the
        index is built (the index is rebuilt whenever the table changes).
        """
        return self._clustering_ratio

    def _measure_clustering_ratio(self) -> float:
        if self.kind is IndexKind.CLUSTERED:
            return 1.0
        ids = self._row_ids
        if len(ids) < 2:
            return 1.0
        rows_per_page = self.table.layout.rows_per_page(self.table.tuple_length)
        pages = ids // rows_per_page
        return int(np.count_nonzero(pages[1:] == pages[:-1])) / (len(ids) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Index({self.name} on {self.table.name}.{self.column_name}, "
            f"{self.kind.value}, height={self.height})"
        )
