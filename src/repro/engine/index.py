"""Secondary and clustered indexes over :class:`~repro.engine.table.Table`.

An index is a B+-tree on one column.  Two kinds exist:

* **clustered** — the table's rows are physically sorted on the key, so a
  range scan touches only the pages holding qualifying rows;
* **non-clustered** — row ids point anywhere in the heap, so each
  qualifying tuple costs (up to) one random page read, moderated by the
  *clustering ratio* (fraction of index-order-adjacent rows that happen to
  share a page).  The paper lists the index clustering ratio among the
  occasionally-changing factors; it is measured, not assumed.

The tree is built by inserting each distinct key once, in order of
first occurrence, with its row ids in row order: node for node the
tree one insert per row builds, with one descent per distinct key
instead of one per row.
"""

from __future__ import annotations

import copy
import enum
from typing import Any

import numpy as np

from .btree import BPlusTree
from .errors import CatalogError
from .table import Table


class IndexKind(enum.Enum):
    CLUSTERED = "clustered"
    NONCLUSTERED = "nonclustered"


class Index:
    """A single-column B+-tree index.

    Immutable once constructed: the tree is built and frozen and the
    clustering ratio measured in ``__init__``; nothing edits either
    afterwards.  A table change is followed by
    ``LocalDatabase._rebuild_indexes``, which constructs new ``Index``
    objects — which is what lets :meth:`fork` share the built tree
    between any number of catalogs.
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
        self._tree = BPlusTree(order=order)
        self._build()
        self._clustering_ratio = self._measure_clustering_ratio()

    def _build(self) -> None:
        """Group the row ids by key, then insert each group (module
        docstring).  NaN equals nothing, itself included, so a NaN row is
        a group of its own, whatever NaN object it holds.
        """
        keys: list[Any] = []
        groups: list[list[int]] = []
        by_key: dict[Any, list[int]] = {}
        for row_id, key in enumerate(self.table.column_values(self.column_name)):
            row_ids = by_key.get(key)
            if row_ids is not None:
                row_ids.append(row_id)
                continue
            row_ids = [row_id]
            keys.append(key)
            groups.append(row_ids)
            if key == key:  # a NaN never joins a group
                by_key[key] = row_ids
        insert = self._tree.insert
        for key, row_ids in zip(keys, groups):
            insert(key, row_ids)
        self._tree.freeze()

    def fork(self, table: Table) -> "Index":
        """This index over *table*, a fork of the table it was built on.

        The fork's ``table`` is *table*; the frozen B+-tree (node ids and
        all) and the measured clustering ratio are shared, since equal
        rows in equal physical order index identically.
        """
        fork = copy.copy(self)
        fork.table = table
        return fork

    # -- lookups ------------------------------------------------------------

    @property
    def height(self) -> int:
        """B+-tree height — charged as random I/Os per traversal."""
        return self._tree.height

    def lookup(self, key: Any) -> list[int]:
        """Row ids matching *key* exactly."""
        return self._tree.search(key)

    def range_lookup(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Row ids with key in the given interval, in key order."""
        return self._tree.range_search(low, high, low_inclusive, high_inclusive)

    def traversal_path(self, key: Any = None) -> list[int]:
        """Node ids of one root→leaf traversal toward *key*.

        One id per tree level (``len == height``); repeated traversals
        share the upper levels, which is why a warm pool makes index
        probes nearly free.  A node's buffer-pool page id is its id plus
        the index's page space (:meth:`BufferPool.page_space`).
        """
        return self._tree.traversal_path(key)

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
        ids = self._tree.range_search()
        if len(ids) < 2:
            return 1.0
        rows_per_page = self.table.layout.rows_per_page(self.table.tuple_length)
        pages = np.array(ids) // rows_per_page
        return int(np.count_nonzero(pages[1:] == pages[:-1])) / (len(ids) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Index({self.name} on {self.table.name}.{self.column_name}, "
            f"{self.kind.value}, height={self.height})"
        )
