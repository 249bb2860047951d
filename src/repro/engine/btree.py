"""The B+-tree build: the shape an index's height and node ids come from.

An index is seen through its B+-tree's height (one random read per
level), the node ids a descent visits (buffer-pool page identities) and
the order of its keys.  This module builds that tree the way a sequence
of inserts does — each distinct key inserted once, in order of first
occurrence, a node splitting when it overflows — and hands back its
shape as arrays: the height, each leaf's first key and each leaf's
root-to-leaf node-id path.  Nothing of the tree survives the build;
:class:`~repro.engine.index.Index` answers every read from those arrays
and its own sorted keys.

Because keys are distinct and inserted in a fixed order, only their
order matters to the shape, so the index builds over *ranks* (the
position of each key among the sorted distinct keys), plain ints that
compare as the keys do.
"""

from __future__ import annotations

import bisect

import numpy as np


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
        self.keys: list[int] = []
        self.node_id: int = -1


class _Leaf(_Node):
    """Leaf node: its keys only (an index keeps the row ids)."""

    __slots__ = ()
    is_leaf = True


class _Internal(_Node):
    """Internal node: children[i] holds keys < keys[i] <= children[i+1]."""

    __slots__ = ("children",)
    is_leaf = False

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class BPlusTree:
    """The insertion-shaped B+-tree over distinct keys.

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
        self.height = 1

    def _register(self, node: _Node) -> _Node:
        """Assign the next deterministic node id (creation order)."""
        node.node_id = self._next_node_id
        self._next_node_id += 1
        return node

    def insert(self, key: int) -> None:
        """Insert *key*, which the tree does not hold yet."""
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect.bisect_right(node.keys, key)]  # type: ignore[attr-defined]
        bisect.insort(node.keys, key)
        if len(node.keys) > self.order:
            self._split_toward(key)

    def _split_toward(self, key: int) -> None:
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
        sep_key, right = self._split(node)
        while path:
            parent, pos = path.pop()
            parent.keys.insert(pos, sep_key)
            parent.children.insert(pos + 1, right)
            if len(parent.keys) <= self.order:
                return
            sep_key, right = self._split(parent)
        new_root = self._register(_Internal())
        new_root.keys = [sep_key]
        new_root.children = [self._root, right]  # type: ignore[attr-defined]
        self._root = new_root
        self.height += 1

    def _split(self, node: _Node) -> tuple[int, _Node]:
        """Move the upper half of *node* into a new right sibling.

        A leaf keeps its separator (the right leaf's first key); an
        internal node passes its middle key up.
        """
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = self._register(type(node)())
        if node.is_leaf:
            right.keys = node.keys[mid:]
        else:
            right.keys = node.keys[mid + 1 :]
            right.children = node.children[mid + 1 :]  # type: ignore[attr-defined]
            node.children = node.children[: mid + 1]  # type: ignore[attr-defined]
        node.keys = node.keys[:mid]
        return sep_key, right

    def leaves(self) -> tuple[np.ndarray, np.ndarray]:
        """Each leaf's first key and its root-to-leaf node ids, leaves in key order.

        A descent toward a key reaches the last leaf whose first key is
        at most that key (the first leaf, for a key below them all):
        every separator is the first key of the leaf it leads to, and no
        insert puts a key before the first key of any leaf but the first.
        """
        first_keys: list[int] = []
        paths: list[list[int]] = []

        def walk(node: _Node, path: list[int]) -> None:
            path = [*path, node.node_id]
            if node.is_leaf:
                first_keys.append(node.keys[0] if node.keys else 0)
                paths.append(path)
                return
            for child in node.children:  # type: ignore[attr-defined]
                walk(child, path)

        walk(self._root, [])
        return np.array(first_keys, dtype=np.intp), np.array(paths, dtype=np.int64)
