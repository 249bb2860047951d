"""A B+-tree keyed on scalar values, mapping keys to lists of row ids.

This backs both clustered and non-clustered indexes.  Duplicate keys are
supported (each leaf entry carries a list of row ids), and one insert
takes a key with all its row ids: an index inserts each distinct key
once.  The tree exposes its height so index access methods can charge
one random page read per level traversed, as real DBMS cost models do.

The implementation favours clarity over raw speed — node splits keep all
invariants explicit — but remains O(log n) per operation, which is plenty
for tables of a few hundred thousand rows.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional


class _Node:
    """Base node: a sorted list of keys.

    ``node_id`` is assigned by the owning tree in creation order, so it
    is deterministic across runs and processes given the same insertion
    sequence — the buffer pool uses it as the node's page identity.
    """

    __slots__ = ("keys", "node_id")

    #: Class-level flag (not a property): descents test it once per level.
    is_leaf: bool

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.node_id: int = -1


class _Leaf(_Node):
    """Leaf node: keys[i] maps to values[i] (a list of row ids)."""

    __slots__ = ("values", "next")
    is_leaf = True

    def __init__(self) -> None:
        super().__init__()
        self.values: list[list[int]] = []
        self.next: Optional["_Leaf"] = None


class _Internal(_Node):
    """Internal node: children[i] holds keys < keys[i] <= children[i+1]."""

    __slots__ = ("children",)
    is_leaf = False

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class BPlusTree:
    """B+-tree from keys to lists of row ids.

    Parameters
    ----------
    order:
        Maximum number of keys per node.  Splits occur when a node would
        exceed this.  Must be at least 3.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 3:
            raise ValueError("order must be at least 3")
        self.order = order
        self._next_node_id = 0
        self._root: _Node = self._register(_Leaf())
        self._height = 1
        self._num_keys = 0
        self._num_entries = 0
        self._frozen = False

    def freeze(self) -> None:
        """Make the tree read-only: a later :meth:`insert` raises.

        An index freezes its tree once built, because forked catalogs
        share built trees (see :meth:`repro.engine.index.Index.fork`).
        """
        self._frozen = True

    def _register(self, node: _Node) -> _Node:
        """Assign the next deterministic node id (creation order)."""
        node.node_id = self._next_node_id
        self._next_node_id += 1
        return node

    # -- properties --------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels from root to leaf (leaf-only tree has height 1)."""
        return self._height

    @property
    def num_keys(self) -> int:
        """Number of distinct keys."""
        return self._num_keys

    def __len__(self) -> int:
        """Total number of (key, row id) entries including duplicates."""
        return self._num_entries

    # -- mutation -----------------------------------------------------------

    def insert(self, key: Any, row_ids: list[int]) -> None:
        """Insert *key* with the row ids *row_ids* (one or more, in row order).

        A new key's entry is *row_ids* itself, not a copy: the caller
        hands the list over.  A key already present gets *row_ids*
        appended to its list, which never splits a node, so inserting
        each distinct key once with all its row ids builds, node for
        node, the tree that one insert per (key, row id) entry would.
        """
        if self._frozen:
            raise RuntimeError("insert into a frozen B+-tree")
        leaf, pos = self._find_leaf(key)
        keys = leaf.keys
        self._num_entries += len(row_ids)
        if pos < len(keys) and keys[pos] == key:
            leaf.values[pos].extend(row_ids)
            return
        keys.insert(pos, key)
        leaf.values.insert(pos, row_ids)
        self._num_keys += 1
        if len(keys) > self.order:
            self._split_toward(key)

    def _split_toward(self, key: Any) -> None:
        """Split the overfull leaf holding *key*, then overfull ancestors.

        Only the rare overflowing insert pays for recording the descent
        path.  Nodes are created in the order leaf split, internal splits
        bottom-up, new root: node ids are buffer-pool page identities, so
        that order (and with it the tree's shape) is part of the
        simulated system's behaviour.
        """
        path: list[tuple[_Internal, int]] = []
        node = self._root
        while not node.is_leaf:
            pos = bisect.bisect_right(node.keys, key)
            path.append((node, pos))  # type: ignore[arg-type]
            node = node.children[pos]  # type: ignore[attr-defined]
        sep_key, right = self._split_leaf(node)  # type: ignore[arg-type]
        while path:
            parent, pos = path.pop()
            parent.keys.insert(pos, sep_key)
            parent.children.insert(pos + 1, right)
            if len(parent.keys) <= self.order:
                return
            sep_key, right = self._split_internal(parent)
        new_root = self._register(_Internal())
        new_root.keys = [sep_key]
        new_root.children = [self._root, right]
        self._root = new_root
        self._height += 1

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = self._register(_Leaf())
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = self._register(_Internal())
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right

    # -- search ---------------------------------------------------------------

    def search(self, key: Any) -> list[int]:
        """Row ids for *key* (empty list when absent)."""
        leaf, pos = self._find_leaf(key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return list(leaf.values[pos])
        return []

    def range_search(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Row ids with keys in the interval [low, high] (bounds optional).

        Collected a leaf at a time: one bisection finds where the interval
        ends inside the leaf, and the row-id lists before it are appended
        whole.
        """
        leaf, pos = self._range_start(low, low_inclusive)
        end_of = bisect.bisect_right if high_inclusive else bisect.bisect_left
        row_ids: list[int] = []
        while leaf is not None:
            keys = leaf.keys
            end = len(keys) if high is None else end_of(keys, high)
            for ids in leaf.values[pos:end]:
                row_ids.extend(ids)
            if end < len(keys):
                break
            leaf = leaf.next
            pos = 0
        return row_ids

    def range_items(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """Iterate (key, row_id) pairs with keys in the interval, in key order."""
        leaf, pos = self._range_start(low, low_inclusive)
        while leaf is not None:
            while pos < len(leaf.keys):
                key = leaf.keys[pos]
                if high is not None:
                    if key > high or (key == high and not high_inclusive):
                        return
                for rid in leaf.values[pos]:
                    yield key, rid
                pos += 1
            leaf = leaf.next
            pos = 0

    def _range_start(self, low: Any, low_inclusive: bool) -> tuple[_Leaf, int]:
        """Leaf and in-leaf position of the first key of an interval from *low*."""
        if low is None:
            return self._leftmost_leaf(), 0
        leaf, pos = self._find_leaf(low)
        if not low_inclusive and pos < len(leaf.keys) and leaf.keys[pos] == low:
            pos += 1
        return leaf, pos

    def items(self) -> Iterator[tuple[Any, int]]:
        """Iterate all (key, row_id) pairs in key order."""
        return self.range_items()

    def _find_leaf(self, key: Any) -> tuple[_Leaf, int]:
        """Locate the leaf and in-leaf position where *key* lives or would go."""
        node = self._root
        while not node.is_leaf:
            internal: _Internal = node  # type: ignore[assignment]
            pos = bisect.bisect_right(internal.keys, key)
            node = internal.children[pos]
        leaf: _Leaf = node  # type: ignore[assignment]
        return leaf, bisect.bisect_left(leaf.keys, key)

    def traversal_path(self, key: Any = None) -> list[int]:
        """Node ids visited root → leaf when descending toward *key*.

        ``key=None`` descends to the leftmost leaf (the entry point of a
        full-range scan).  The path length always equals :attr:`height`;
        the buffer pool charges one page per node on it.
        """
        path: list[int] = []
        node = self._root
        while not node.is_leaf:
            path.append(node.node_id)
            internal: _Internal = node  # type: ignore[assignment]
            pos = 0 if key is None else bisect.bisect_right(internal.keys, key)
            node = internal.children[pos]
        path.append(node.node_id)
        return path

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    # -- invariant checking (used by property tests) ----------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any B+-tree invariant is violated."""
        depths: set[int] = set()
        self._check_node(self._root, None, None, 1, depths, is_root=True)
        assert len(depths) == 1, "leaves at different depths"
        assert depths == {self._height}, "tracked height disagrees with structure"
        keys = [k for k, _ in self.items()]
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(set(keys)) == len(keys) or True  # duplicates live in one entry
        distinct = len(dict.fromkeys(keys))
        assert distinct == self._num_keys, "key count mismatch"

    def _check_node(self, node, low, high, depth, depths, is_root=False) -> None:
        assert node.keys == sorted(node.keys), "node keys out of order"
        assert len(node.keys) <= self.order, "node overflow"
        for k in node.keys:
            if low is not None:
                assert k >= low, "key below subtree lower bound"
            if high is not None:
                assert k < high, "key above subtree upper bound"
        if node.is_leaf:
            depths.add(depth)
            assert len(node.keys) == len(node.values)
            return
        assert len(node.children) == len(node.keys) + 1, "fanout mismatch"
        if not is_root:
            assert len(node.keys) >= 1
        bounds = [low, *node.keys, high]
        for child, (lo, hi) in zip(node.children, zip(bounds[:-1], bounds[1:])):
            self._check_node(child, lo, hi, depth + 1, depths)
