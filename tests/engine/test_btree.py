"""Unit and property tests for the B+-tree."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import BPlusTree, _Internal
from repro.engine.index import Index, IndexKind
from repro.engine.schema import Column, DataType, TableSchema
from repro.engine.table import Table


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.num_keys == 0
        assert tree.height == 1
        assert tree.search(5) == []

    def test_single_insert(self):
        tree = BPlusTree()
        tree.insert(10, [0])
        assert tree.search(10) == [0]
        assert len(tree) == 1

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree()
        for rid in range(5):
            tree.insert(7, [rid])
        assert tree.search(7) == [0, 1, 2, 3, 4]
        assert tree.num_keys == 1
        assert len(tree) == 5

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_height_grows_with_inserts(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, [i])
        assert tree.height > 1
        tree.check_invariants()

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        keys = [5, 3, 8, 1, 9, 2, 7, 0, 6, 4]
        for i, k in enumerate(keys):
            tree.insert(k, [i])
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestRangeSearch:
    @pytest.fixture
    def tree(self):
        t = BPlusTree(order=4)
        for i in range(0, 100, 2):  # even keys 0..98
            t.insert(i, [i])
        return t

    def test_closed_range(self, tree):
        assert tree.range_search(10, 20) == [10, 12, 14, 16, 18, 20]

    def test_open_low(self, tree):
        assert tree.range_search(10, 16, low_inclusive=False) == [12, 14, 16]

    def test_open_high(self, tree):
        assert tree.range_search(10, 16, high_inclusive=False) == [10, 12, 14]

    def test_unbounded_low(self, tree):
        assert tree.range_search(None, 6) == [0, 2, 4, 6]

    def test_unbounded_high(self, tree):
        assert tree.range_search(94, None) == [94, 96, 98]

    def test_full_range(self, tree):
        assert tree.range_search() == list(range(0, 100, 2))

    def test_empty_range(self, tree):
        assert tree.range_search(11, 11) == []

    def test_range_below_everything(self, tree):
        assert tree.range_search(-10, -1) == []

    def test_range_above_everything(self, tree):
        assert tree.range_search(200, 300) == []


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-1000, 1000), min_size=0, max_size=300),
    order=st.integers(3, 16),
)
def test_property_tree_matches_sorted_reference(keys, order):
    """Invariants + search/range agreement with a sorted reference."""
    tree = BPlusTree(order=order)
    for rid, key in enumerate(keys):
        tree.insert(key, [rid])
    tree.check_invariants()
    assert len(tree) == len(keys)
    assert tree.num_keys == len(set(keys))

    # Full iteration matches the multiset, sorted by key then insert order.
    expected = sorted(((k, i) for i, k in enumerate(keys)), key=lambda p: (p[0], p[1]))
    assert list(tree.items()) == expected

    if keys:
        lo, hi = np.percentile(keys, [25, 75])
        lo, hi = int(lo), int(hi)
        got = tree.range_search(lo, hi)
        want = [i for k, i in expected if lo <= k <= hi]
        assert got == want


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 40), min_size=0, max_size=200),
    order=st.integers(3, 8),
    low=st.none() | st.integers(-2, 42),
    high=st.none() | st.integers(-2, 42),
    low_inclusive=st.booleans(),
    high_inclusive=st.booleans(),
)
def test_property_range_search_is_the_item_stream(
    keys, order, low, high, low_inclusive, high_inclusive
):
    """The leaf-at-a-time ``range_search`` returns exactly the row ids
    ``range_items`` yields — open, exclusive, inverted and empty
    intervals, duplicates, bounds on leaf edges."""
    tree = BPlusTree(order=order)
    for rid, key in enumerate(keys):
        tree.insert(key, [rid])
    bounds = (low, high, low_inclusive, high_inclusive)
    assert tree.range_search(*bounds) == [rid for _, rid in tree.range_items(*bounds)]
    assert tree.range_search(*bounds) == [
        rid
        for key, rid in tree.items()
        if (low is None or key > low or (low_inclusive and key == low))
        and (high is None or key < high or (high_inclusive and key == high))
    ]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_property_point_lookup(keys):
    tree = BPlusTree(order=5)
    for rid, key in enumerate(keys):
        tree.insert(key, [rid])
    for probe in set(keys):
        assert tree.search(probe) == [i for i, k in enumerate(keys) if k == probe]
    assert tree.search(max(keys) + 1) == []


# -- shape identity with the recursive insert the iterative one replaced ------


class RecursiveTree(BPlusTree):
    """Test-only reference: the original recursive insert.

    Node ids are buffer-pool page identities and the height is a
    simulated cost, so the production insert must build the very same
    tree, node for node, in the same creation order.
    """

    def insert(self, key, row_id):
        split = self._insert(self._root, key, row_id)
        if split is not None:
            sep_key, right = split
            new_root = self._register(_Internal())
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1

    def _insert(self, node, key, row_id):
        if node.is_leaf:
            pos = bisect.bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                node.values[pos].append(row_id)
                self._num_entries += 1
                return None
            node.keys.insert(pos, key)
            node.values.insert(pos, [row_id])
            self._num_keys += 1
            self._num_entries += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        pos = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[pos], key, row_id)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(pos, sep_key)
        node.children.insert(pos + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None


def tree_shape(tree):
    """Everything observable about the structure, node by node."""
    nodes = []
    frontier = [tree._root]
    while frontier:
        node = frontier.pop(0)
        # Keys by exact type and repr: 1 vs 1.0 and 0.0 vs -0.0 stay apart.
        keys = [(type(k), repr(k)) for k in node.keys]
        if node.is_leaf:
            nodes.append((node.node_id, keys, [list(v) for v in node.values]))
        else:
            nodes.append((node.node_id, keys, [c.node_id for c in node.children]))
            frontier.extend(node.children)
    chain = []
    leaf = tree._leftmost_leaf()
    while leaf is not None:
        chain.append(leaf.node_id)
        leaf = leaf.next
    return {
        "nodes": nodes,
        "leaf_chain": chain,
        "height": tree.height,
        "num_keys": tree.num_keys,
        "len": len(tree),
        "next_node_id": tree._next_node_id,
    }


def key_sequence(kind, n, seed=5):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 10 * n, size=n).tolist()
    if kind == "ascending":
        return list(range(n))
    if kind == "descending":
        return list(range(n, 0, -1))
    assert kind == "duplicates"
    return rng.integers(0, max(2, n // 40), size=n).tolist()


@pytest.mark.parametrize("order, n", [(3, 400), (4, 700), (64, 9000)])
@pytest.mark.parametrize("kind", ["random", "ascending", "descending", "duplicates"])
def test_iterative_insert_builds_the_recursive_tree(kind, order, n):
    keys = key_sequence(kind, n)
    tree, reference = BPlusTree(order=order), RecursiveTree(order=order)
    for rid, key in enumerate(keys):
        tree.insert(key, [rid])
        reference.insert(key, rid)
    assert tree_shape(tree) == tree_shape(reference)
    assert tree.height >= 2
    for key in [None, *set(keys), -1, max(keys) + 1]:
        assert tree.traversal_path(key) == reference.traversal_path(key)
        assert len(tree.traversal_path(key)) == tree.height
    tree.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-40, 40), max_size=250),
    order=st.sampled_from([3, 4, 5, 64]),
)
def test_property_same_shape_after_every_insert(keys, order):
    tree, reference = BPlusTree(order=order), RecursiveTree(order=order)
    for rid, key in enumerate(keys):
        tree.insert(key, [rid])
        reference.insert(key, rid)
        assert tree._next_node_id == reference._next_node_id
    assert tree_shape(tree) == tree_shape(reference)
    tree.check_invariants()


# -- the index's grouped build: one insert per distinct key ---------------------


def grouped_index(keys, order):
    """An index built by ``Index._build`` over a column reading *keys*."""
    table = Table(TableSchema("t", [Column("k", DataType.FLOAT)]))
    table.column_values = lambda name: list(keys)
    return Index("i", table, "k", IndexKind.NONCLUSTERED, order=order)


def per_row_reference(keys, order):
    reference = RecursiveTree(order=order)
    for rid, key in enumerate(keys):
        reference.insert(key, rid)
    return reference


def assert_same_tree(tree, reference, probes):
    assert tree_shape(tree) == tree_shape(reference)
    for key in [None, *probes]:
        assert tree.traversal_path(key) == reference.traversal_path(key)


def mixed_sequence(kind, n, seed=5):
    """Ints and floats where equal keys differ in type or sign: 1 and 1.0,
    0.0 and -0.0.  The first occurrence's object is the tree's key."""
    rng = np.random.default_rng(seed)
    keys = key_sequence(kind, n, seed)
    return [
        (float(k) if rng.random() < 0.5 else k) if k else (-0.0 if rng.random() < 0.5 else 0.0)
        for k in keys
    ]


@pytest.mark.parametrize("order, n", [(3, 400), (4, 700), (64, 9000)])
@pytest.mark.parametrize("kind", ["random", "ascending", "descending", "duplicates"])
@pytest.mark.parametrize("mixed", [False, True], ids=["ints", "mixed"])
def test_grouped_build_is_the_per_row_tree(kind, order, n, mixed):
    keys = mixed_sequence(kind, n) if mixed else key_sequence(kind, n)
    index = grouped_index(keys, order)
    reference = per_row_reference(keys, order)
    assert_same_tree(index._tree, reference, [*set(keys), -1, max(keys) + 1])
    assert index.height == reference.height >= 2
    index._tree.check_invariants()


@pytest.mark.parametrize("order", [3, 4, 64])
@pytest.mark.parametrize("pair", [(1.0, 1), (1, 1.0), (-0.0, 0.0)], ids=repr)
def test_grouped_build_of_all_duplicate_keys(order, pair):
    keys = list(pair) * 100
    index = grouped_index(keys, order)
    assert_same_tree(index._tree, per_row_reference(keys, order), [-1, 0, 1, 2])
    assert (index._tree.num_keys, len(index._tree), index.height) == (1, 200, 1)
    assert index.lookup(pair[1]) == list(range(200))
    assert [(type(k), repr(k)) for k, _ in index._tree.items()][:1] == [
        (type(pair[0]), repr(pair[0]))
    ]


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(
        st.one_of(
            st.integers(-30, 30),
            st.integers(-30, 30).map(float),
            st.sampled_from([0.0, -0.0, 0.5, -2.5]),
        ),
        max_size=300,
    ),
    order=st.sampled_from([3, 4, 64]),
)
def test_property_grouped_build_is_the_per_row_tree(keys, order):
    index = grouped_index(keys, order)
    reference = per_row_reference(keys, order)
    assert_same_tree(index._tree, reference, [*keys, -31, 31])
    index._tree.check_invariants()


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(
        st.one_of(st.integers(-5, 5).map(float), st.just(None)),
        max_size=120,
    ),
    order=st.sampled_from([3, 4, 64]),
)
def test_property_nan_rows_build_alike_whatever_their_objects(keys, order):
    """``None`` marks a NaN row: one NaN object repeated, or a new NaN
    object per row, builds the same index."""
    shared = float("nan")
    one_object = [shared if k is None else k for k in keys]
    own_objects = [float("nan") if k is None else k for k in keys]
    first, second = grouped_index(one_object, order), grouped_index(own_objects, order)
    assert tree_shape(first._tree) == tree_shape(second._tree)
    probes = [None, *own_objects]
    assert [first.traversal_path(k) for k in probes] == [second.traversal_path(k) for k in probes]
    assert first.range_lookup() == second.range_lookup()
    assert first.clustering_ratio() == second.clustering_ratio()
