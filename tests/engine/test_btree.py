"""Unit and property tests for the B+-tree build and the index arrays.

The reference is the recursive per-row B+-tree below: one insert per
(key, row id), a list of row ids in each leaf entry, searches by descent
and by the leaf chain, all in Python's comparison.  The index builds its
tree once per distinct key, on ranks, and keeps only arrays; everything
observable — height, node count, leaf first keys, the node ids of each
descent, lookups and ranges — must equal the reference's.
"""

import bisect
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import BPlusTree
from repro.engine.database import LocalDatabase
from repro.engine.errors import QueryError, TypeError_
from repro.engine.index import Index, IndexKind
from repro.engine.predicate import Comparison
from repro.engine.schema import Column, DataType, TableSchema
from repro.engine.table import ResultTable, Table

# -- the per-row reference --------------------------------------------------------


class _Node:
    def __init__(self, leaf):
        self.keys, self.node_id, self.is_leaf = [], -1, leaf
        self.values, self.children, self.next = [], [], None


class RecursiveTree:
    """Test-only reference: the original recursive insert, one per row.

    Node ids are buffer-pool page identities and the height is a
    simulated cost, so the index must reproduce this tree node for node,
    in the same creation order.
    """

    def __init__(self, order):
        self.order, self._next_node_id, self.height = order, 0, 1
        self._root = self._register(_Node(leaf=True))

    def _register(self, node):
        node.node_id, self._next_node_id = self._next_node_id, self._next_node_id + 1
        return node

    def insert(self, key, row_id):
        split = self._insert(self._root, key, row_id)
        if split is not None:
            sep_key, right = split
            new_root = self._register(_Node(leaf=False))
            new_root.keys, new_root.children = [sep_key], [self._root, right]
            self._root = new_root
            self.height += 1

    def _insert(self, node, key, row_id):
        if node.is_leaf:
            pos = bisect.bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                node.values[pos].append(row_id)
                return None
            node.keys.insert(pos, key)
            node.values.insert(pos, [row_id])
            return self._split(node) if len(node.keys) > self.order else None
        pos = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[pos], key, row_id)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(pos, sep_key)
        node.children.insert(pos + 1, right)
        return self._split(node) if len(node.keys) > self.order else None

    def _split(self, node):
        mid = len(node.keys) // 2
        right = self._register(_Node(node.is_leaf))
        if node.is_leaf:
            right.keys, right.values = node.keys[mid:], node.values[mid:]
            node.keys, node.values = node.keys[:mid], node.values[:mid]
            right.next, node.next = node.next, right
            return right.keys[0], right
        sep_key = node.keys[mid]
        right.keys, right.children = node.keys[mid + 1 :], node.children[mid + 1 :]
        node.keys, node.children = node.keys[:mid], node.children[: mid + 1]
        return sep_key, right

    def _find_leaf(self, key):
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect.bisect_right(node.keys, key)]
        return node, bisect.bisect_left(node.keys, key)

    def search(self, key):
        leaf, pos = self._find_leaf(key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return list(leaf.values[pos])
        return []

    def items(self):
        leaf = self._root
        while not leaf.is_leaf:
            leaf = leaf.children[0]
        while leaf is not None:
            for key, ids in zip(leaf.keys, leaf.values):
                for rid in ids:
                    yield key, rid
            leaf = leaf.next

    def range_search(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        return [
            rid
            for key, rid in self.items()
            if (low is None or key > low or (low_inclusive and key == low))
            and (high is None or key < high or (high_inclusive and key == high))
        ]

    def traversal_path(self, key=None):
        path, node = [], self._root
        while not node.is_leaf:
            path.append(node.node_id)
            node = node.children[0 if key is None else bisect.bisect_right(node.keys, key)]
        return [*path, node.node_id]

    def leaves(self):
        """(first key, root-to-leaf node ids) of each leaf, in key order."""
        out = []

        def walk(node, path):
            path = [*path, node.node_id]
            if node.is_leaf:
                out.append((node.keys[0] if node.keys else None, path))
            else:
                for child in node.children:
                    walk(child, path)

        walk(self._root, [])
        return out


def per_row_reference(keys, order):
    reference = RecursiveTree(order)
    for rid, key in enumerate(keys):
        reference.insert(key, rid)
    return reference


# -- helpers ------------------------------------------------------------------------


def index_over(keys, dtype=DataType.INT, order=64, width=0):
    """A non-clustered index over a one-column table holding *keys*."""
    table = Table(TableSchema("t", [Column("k", dtype, width)]))
    table.bulk_load([(key,) for key in keys])
    return Index("i", table, "k", IndexKind.NONCLUSTERED, order=order)


def assert_array_invariants(index):
    """What any built index holds, whatever its keys."""
    keys, starts, row_ids = index._keys.tolist(), index._starts, index._row_ids
    assert all(a < b for a, b in zip(keys, keys[1:])), "keys not strictly increasing"
    assert starts[0] == 0 and starts[-1] == len(row_ids) == len(index.table)
    assert len(starts) == len(keys) + 1 and (np.diff(starts) > 0).all()
    assert sorted(row_ids.tolist()) == list(range(len(row_ids)))
    for group in np.split(row_ids, starts[1:-1]):
        assert (np.diff(group) > 0).all(), "a key's row ids out of row order"
    assert index._leaf_starts[0] == 0 and (np.diff(index._leaf_starts) > 0).all()
    assert index._leaf_paths.shape == (len(index._leaf_starts), index.height)
    assert len(set(index._leaf_paths[:, 0].tolist())) == 1, "one root"


def assert_same_tree(index, reference, probes):
    """Shape, descents and point lookups of *index* equal *reference*'s."""
    leaves = reference.leaves()
    assert index.height == reference.height
    assert len(np.unique(index._leaf_paths)) == reference._next_node_id
    assert index._leaf_paths.tolist() == [path for _, path in leaves]
    first_keys = index._keys[index._leaf_starts].tolist() if len(index._keys) else [None]
    assert first_keys == [key for key, _ in leaves]
    for key in [None, *probes]:
        assert index.traversal_path(key) == reference.traversal_path(key)
        assert len(index.traversal_path(key)) == index.height
        if key is not None:
            assert index.range_lookup(key, key).tolist() == reference.search(key)
    assert_array_invariants(index)


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


def mixed_sequence(kind, n, seed=5):
    """Ints and floats where equal keys differ in type or sign: 1 and 1.0,
    0.0 and -0.0.  A FLOAT column stores each as a float."""
    rng = np.random.default_rng(seed)
    keys = key_sequence(kind, n, seed)
    return [
        (float(k) if rng.random() < 0.5 else k) if k else (-0.0 if rng.random() < 0.5 else 0.0)
        for k in keys
    ]


class TestBasics:
    def test_empty_tree(self):
        index = index_over([])
        assert index.height == 1
        assert index.range_lookup(5, 5).tolist() == []
        assert index.range_lookup().tolist() == []
        assert index.traversal_path() == index.traversal_path(5) == [0]

    def test_single_insert(self):
        index = index_over([10])
        assert index.range_lookup(10, 10).tolist() == [0]
        assert index.range_lookup().tolist() == [0]

    def test_duplicate_keys_accumulate(self):
        index = index_over([7] * 5)
        assert index.range_lookup(7, 7).tolist() == [0, 1, 2, 3, 4]
        assert index._keys.tolist() == [7]

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)
        with pytest.raises(ValueError):
            index_over([1, 2], order=2)

    def test_height_grows_with_inserts(self):
        index = index_over(range(100), order=4)
        assert index.height > 1
        assert_same_tree(index, per_row_reference(range(100), 4), range(100))

    def test_items_sorted(self):
        keys = [5, 3, 8, 1, 9, 2, 7, 0, 6, 4]
        index = index_over(keys, order=4)
        assert [keys[rid] for rid in index.range_lookup().tolist()] == sorted(keys)


class TestRangeSearch:
    @pytest.fixture
    def keys_in(self):
        index = index_over(range(0, 100, 2), order=4)  # even keys 0..98, row r holds 2r
        return lambda *bounds, **inclusive: [
            2 * rid for rid in index.range_lookup(*bounds, **inclusive).tolist()
        ]

    def test_closed_range(self, keys_in):
        assert keys_in(10, 20) == [10, 12, 14, 16, 18, 20]

    def test_open_low(self, keys_in):
        assert keys_in(10, 16, low_inclusive=False) == [12, 14, 16]

    def test_open_high(self, keys_in):
        assert keys_in(10, 16, high_inclusive=False) == [10, 12, 14]

    def test_unbounded_low(self, keys_in):
        assert keys_in(None, 6) == [0, 2, 4, 6]

    def test_unbounded_high(self, keys_in):
        assert keys_in(94, None) == [94, 96, 98]

    def test_full_range(self, keys_in):
        assert keys_in() == list(range(0, 100, 2))

    def test_empty_range(self, keys_in):
        assert keys_in(11, 11) == []

    def test_range_below_everything(self, keys_in):
        assert keys_in(-10, -1) == []

    def test_range_above_everything(self, keys_in):
        assert keys_in(200, 300) == []


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-1000, 1000), min_size=0, max_size=300),
    order=st.integers(3, 16),
)
def test_property_tree_matches_sorted_reference(keys, order):
    """Array invariants + full and range scans agree with a sorted reference."""
    index = index_over(keys, order=order)
    assert_array_invariants(index)
    assert len(index._keys) == len(set(keys))
    expected = sorted((k, i) for i, k in enumerate(keys))
    assert [(keys[i], i) for i in index.range_lookup().tolist()] == expected
    if keys:
        lo, hi = (int(q) for q in np.percentile(keys, [25, 75]))
        assert index.range_lookup(lo, hi).tolist() == [i for k, i in expected if lo <= k <= hi]


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
    """A range is the slice of the per-row tree's item stream its bounds
    select — open, exclusive, inverted and empty intervals, duplicates,
    bounds on leaf edges."""
    index = index_over(keys, order=order)
    bounds = (low, high, low_inclusive, high_inclusive)
    got = index.range_lookup(*bounds)
    assert got.dtype == np.intp and not got.flags.writeable
    assert got.tolist() == per_row_reference(keys, order).range_search(*bounds)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_property_point_lookup(keys):
    index = index_over(keys, order=5)
    for probe in set(keys):
        want = [i for i, k in enumerate(keys) if k == probe]
        assert index.range_lookup(probe, probe).tolist() == want
    assert index.range_lookup(max(keys) + 1, max(keys) + 1).tolist() == []


# -- the build: one insert per distinct key, on ranks --------------------------


def first_occurrences(keys):
    return list(dict.fromkeys(keys))


@pytest.mark.parametrize("order, n", [(3, 400), (4, 700), (64, 9000)])
@pytest.mark.parametrize("kind", ["random", "ascending", "descending", "duplicates"])
def test_iterative_insert_builds_the_recursive_tree(kind, order, n):
    keys = key_sequence(kind, n)
    tree, reference = BPlusTree(order=order), per_row_reference(keys, order)
    for key in first_occurrences(keys):
        tree.insert(key)
    first_keys, paths = tree.leaves()
    assert tree.height == reference.height >= 2
    assert tree._next_node_id == reference._next_node_id
    assert [(k, p) for k, p in zip(first_keys.tolist(), paths.tolist())] == reference.leaves()


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-40, 40), max_size=250),
    order=st.sampled_from([3, 4, 5, 64]),
)
def test_property_same_shape_after_every_insert(keys, order):
    tree, reference = BPlusTree(order=order), RecursiveTree(order)
    seen = set()
    for rid, key in enumerate(keys):
        reference.insert(key, rid)
        if key not in seen:
            seen.add(key)
            tree.insert(key)
        assert tree._next_node_id == reference._next_node_id
        assert tree.height == reference.height
    first_keys, paths = tree.leaves()
    if keys:
        assert list(zip(first_keys.tolist(), paths.tolist())) == reference.leaves()


@pytest.mark.parametrize("order, n", [(3, 400), (4, 700), (64, 9000)])
@pytest.mark.parametrize("kind", ["random", "ascending", "descending", "duplicates"])
@pytest.mark.parametrize("mixed", [False, True], ids=["ints", "mixed"])
def test_grouped_build_is_the_per_row_tree(kind, order, n, mixed):
    keys = mixed_sequence(kind, n) if mixed else key_sequence(kind, n)
    index = index_over(keys, DataType.FLOAT if mixed else DataType.INT, order)
    reference = per_row_reference(index.table.column_values("k"), order)
    assert_same_tree(index, reference, [*set(keys), -1, max(keys) + 1])
    assert index.height >= 2


@pytest.mark.parametrize("order", [3, 4, 64])
@pytest.mark.parametrize("pair", [(1.0, 1), (1, 1.0), (-0.0, 0.0)], ids=repr)
def test_grouped_build_of_all_duplicate_keys(order, pair):
    keys = list(pair) * 100
    index = index_over(keys, DataType.FLOAT, order)
    assert_same_tree(index, per_row_reference(keys, order), [-1, 0, 1, 2])
    assert (len(index._keys), len(index.range_lookup()), index.height) == (1, 200, 1)
    assert index.range_lookup(pair[1], pair[1]).tolist() == list(range(200))
    # The first occurrence's value is the key: -0.0 stays -0.0.
    assert [repr(k) for k in index._keys.tolist()] == [repr(float(pair[0]))]


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
    index = index_over(keys, DataType.FLOAT, order)
    reference = per_row_reference(index.table.column_values("k"), order)
    assert_same_tree(index, reference, [*keys, -31, 31])


# -- the frozen arrays against the reference, every key type --------------------

#: Bounds either side of ±2**53 and of int64's range, in both numeric kinds.
EDGE_BOUNDS = [
    2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63, -(2**63) - 1, 2**70,
    2.0**53, 2.0**53 + 2, -(2.0**53), 2.0**63, -(2.0**64), 1e300, math.inf, -math.inf,
    0.5, -0.5, 0, -0.0,
]
EDGE_INTS = [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**62, -(2**63), 2**63 - 1]
STRINGS = ["", "a", "a\x00", "a\x00\x00", "a ", "a\x00b", "ab", "b", "é"]

#: (column type, key values, extra bounds); EDGE_BOUNDS reach beyond int64.
KEY_KINDS = {
    "int": (DataType.INT, st.integers(-6, 6) | st.sampled_from(EDGE_INTS), EDGE_BOUNDS),
    "float": (
        DataType.FLOAT,
        st.integers(-6, 6).map(float)
        | st.sampled_from([-0.0, 0.0, 0.5, -2.5, 2.0**53, 2.0**53 + 2, -(2.0**63), 1e300]),
        EDGE_BOUNDS,
    ),
    "str": (DataType.STR, st.sampled_from(STRINGS), STRINGS + ["a\x00\x00\x00", "c"]),
}

#: What the index holds its keys as: strings as Python objects.
KEY_DTYPES = {"int": np.int64, "float": np.float64, "str": object}


@st.composite
def indexed_columns(draw):
    kind = draw(st.sampled_from(sorted(KEY_KINDS)))
    dtype, values, bounds = KEY_KINDS[kind]
    keys = draw(st.lists(values, max_size=120))
    return kind, dtype, keys, bounds


@settings(max_examples=150, deadline=None)
@given(column=indexed_columns(), order=st.sampled_from([3, 4, 64]), data=st.data())
def test_property_frozen_arrays_match_the_per_row_reference(column, order, data):
    kind, dtype, keys, bounds = column
    index = index_over(keys, dtype, order, width=8 if dtype is DataType.STR else 0)
    values = index.table.column_values("k")
    assert index._keys.dtype == KEY_DTYPES[kind]
    reference = per_row_reference(values, order)
    probes = [*dict.fromkeys(values), *bounds]
    assert_same_tree(index, reference, probes)
    for _ in range(25):
        low = data.draw(st.sampled_from([None, *probes]))
        high = data.draw(st.sampled_from([None, *probes]))
        for low_inclusive in (True, False):
            for high_inclusive in (True, False):
                bounds_ = (low, high, low_inclusive, high_inclusive)
                assert index.range_lookup(*bounds_).tolist() == reference.range_search(*bounds_)


# -- what a built index keeps ----------------------------------------------------


def test_an_index_holds_no_per_key_objects():
    """Building an index over a 20,000-row INT column leaves fewer than
    100 new gc-tracked objects: the keys and row ids are arrays, and the
    tree's nodes do not outlive the build."""
    rng = np.random.default_rng(3)
    table = Table(TableSchema("t", [Column("k", DataType.INT)]))
    table.bulk_load([(key,) for key in rng.integers(0, 10**9, size=20_000).tolist()])
    table.column_array("k")
    gc.collect()
    before = len(gc.get_objects())
    index = Index("i", table, "k", IndexKind.NONCLUSTERED)
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert index.height >= 3


def test_nan_never_reaches_an_index():
    """NaN is rejected on every way into a FLOAT column and as a
    comparison constant, so index keys always have a total order."""
    schema = TableSchema("t", [Column("x", DataType.FLOAT)])
    nan = float("nan")
    with pytest.raises(TypeError_, match="NaN"):
        Table(schema).insert((nan,))
    with pytest.raises(TypeError_, match="NaN"):
        Table(schema).bulk_load([(1.0,), (nan,)])  # exact-type batch: the fast path
    with pytest.raises(TypeError_, match="NaN"):
        Table(schema).bulk_load([(1,), (nan,)])  # coerced batch: row by row
    arrived_by_column = ResultTable(["x"], 8, gathers=[(np.array([1.0, nan]), np.arange(2))])
    with pytest.raises(TypeError_, match="NaN"):
        Table(schema).bulk_load(arrived_by_column)
    db = LocalDatabase("db", noise_sigma=0.0)
    with pytest.raises(TypeError_, match="NaN"):
        db.create_table("t", [Column("x", DataType.FLOAT)], [(nan,)])
    with pytest.raises(QueryError, match="NaN"):
        Comparison("x", "=", nan)
