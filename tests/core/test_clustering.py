"""Unit and property tests for 1-D agglomerative clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    Cluster,
    Dendrogram,
    agglomerate,
    cluster_extents,
    merge_small_clusters,
)


class TestAgglomerate:
    def test_obvious_two_clusters(self):
        values = [1.0, 1.1, 1.2, 9.0, 9.1]
        clusters = agglomerate(values, 2)
        assert len(clusters) == 2
        assert clusters[0].count == 3
        assert clusters[1].count == 2
        assert clusters[0].extent == (1.0, 1.2)
        assert clusters[1].extent == (9.0, 9.1)

    def test_three_well_separated_groups(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.normal(0, 0.1, 30), rng.normal(5, 0.1, 30), rng.normal(10, 0.1, 30)]
        )
        clusters = agglomerate(values.tolist(), 3)
        centroids = sorted(c.centroid for c in clusters)
        assert centroids == pytest.approx([0, 5, 10], abs=0.2)

    def test_k_greater_than_n_gives_singletons(self):
        clusters = agglomerate([3.0, 1.0, 2.0], 10)
        assert len(clusters) == 3
        assert all(c.count == 1 for c in clusters)

    def test_k_one_merges_everything(self):
        (cluster,) = agglomerate([1.0, 5.0, 9.0], 1)
        assert cluster.count == 3
        assert cluster.centroid == pytest.approx(5.0)

    def test_sorted_by_centroid(self):
        clusters = agglomerate([9.0, 1.0, 5.0, 1.1, 9.1], 3)
        centroids = [c.centroid for c in clusters]
        assert centroids == sorted(centroids)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agglomerate([], 2)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            agglomerate([1.0], 0)

    def test_deterministic(self):
        values = list(np.random.default_rng(1).normal(0, 1, 50))
        a = agglomerate(values, 4)
        b = agglomerate(values, 4)
        assert [c.extent for c in a] == [c.extent for c in b]


class TestClusterArithmetic:
    def test_merge_preserves_mass(self):
        a = Cluster(2, 3.0, 1.0, 2.0)
        b = Cluster(3, 30.0, 9.0, 11.0)
        merged = a.merged_with(b)
        assert merged.count == 5
        assert merged.centroid == pytest.approx(33.0 / 5)
        assert merged.extent == (1.0, 11.0)

    def test_extents_listing(self):
        clusters = agglomerate([1.0, 1.1, 5.0], 2)
        assert cluster_extents(clusters) == [(1.0, 1.1), (5.0, 5.0)]


class TestMergeSmallClusters:
    def test_small_cluster_absorbed_by_nearest(self):
        clusters = [
            Cluster(10, 10.0, 0.5, 1.5),
            Cluster(1, 2.0, 2.0, 2.0),
            Cluster(10, 90.0, 8.5, 9.5),
        ]
        merged = merge_small_clusters(clusters, min_count=3)
        assert len(merged) == 2
        assert merged[0].count == 11  # absorbed leftward (closer centroid)

    def test_no_small_clusters_is_identity(self):
        clusters = agglomerate([1.0, 1.1, 9.0, 9.1], 2)
        assert merge_small_clusters(clusters, 2) == clusters

    def test_min_count_one_is_identity(self):
        clusters = agglomerate([1.0, 9.0], 2)
        assert merge_small_clusters(clusters, 1) == clusters

    def test_all_small_collapses_to_one(self):
        clusters = [Cluster(1, float(v), float(v), float(v)) for v in range(5)]
        merged = merge_small_clusters(clusters, min_count=10)
        assert len(merged) == 1
        assert merged[0].count == 5


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=80),
    k=st.integers(1, 8),
)
def test_property_clusters_partition_the_sample(values, k):
    """Counts sum to n; extents are disjoint, ordered, and cover all points."""
    clusters = agglomerate(values, k)
    assert sum(c.count for c in clusters) == len(values)
    extents = cluster_extents(clusters)
    for (lo, hi) in extents:
        assert lo <= hi
    for (_, hi_prev), (lo_next, _) in zip(extents, extents[1:]):
        assert hi_prev <= lo_next
    lo_all = min(lo for lo, _ in extents)
    hi_all = max(hi for _, hi in extents)
    assert lo_all == min(values)
    assert hi_all == max(values)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=60),
    k=st.integers(1, 6),
    floor=st.integers(1, 5),
)
def test_property_merge_small_respects_floor_or_collapses(values, k, floor):
    clusters = merge_small_clusters(agglomerate(values, k), floor)
    assert sum(c.count for c in clusters) == len(values)
    if len(clusters) > 1:
        assert all(c.count >= floor for c in clusters)


def restart_agglomerate(values, num_clusters):
    """The textbook loop ``agglomerate`` shipped as: restart from the
    singletons for every cluster count, rescan every gap for every merge.
    Kept as the reference the one-tree cut is pinned to."""
    clusters = [Cluster(1, v, v, v) for v in sorted(float(v) for v in values)]
    while len(clusters) > num_clusters:
        best_idx = 0
        best_gap = clusters[1].centroid - clusters[0].centroid
        for i in range(1, len(clusters) - 1):
            gap = clusters[i + 1].centroid - clusters[i].centroid
            if gap < best_gap:
                best_gap = gap
                best_idx = i
        merged = clusters[best_idx].merged_with(clusters[best_idx + 1])
        clusters[best_idx : best_idx + 2] = [merged]
    return clusters


#: Few distinct values on a coarse grid: duplicates and tied gaps galore.
GRID_SAMPLES = st.lists(st.integers(0, 12), min_size=1, max_size=40).map(
    lambda ks: [k * 0.25 for k in ks]
)
SAMPLES = st.one_of(
    GRID_SAMPLES,
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
)


class TestDendrogramCuts:
    @settings(max_examples=120, deadline=None)
    @given(values=SAMPLES)
    def test_every_cut_is_the_restart_from_singletons_result(self, values):
        """Same clusters — counts, float totals, extents — at every m."""
        tree = Dendrogram(values)
        assert len(tree) == len(values)
        for m in range(1, len(values) + 2):
            expected = restart_agglomerate(values, m)
            assert tree.cut(m) == expected
            assert agglomerate(values, m) == expected

    def test_tied_gaps_merge_leftmost_first(self):
        tree = Dendrogram([0.0, 1.0, 2.0, 3.0])
        assert [c.extent for c in tree.cut(3)] == [(0.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_cuts_do_not_disturb_the_tree(self):
        values = [5.0, 1.0, 1.0, 9.0, 2.5, 2.5, 7.0]
        tree = Dendrogram(values)
        first = [tree.cut(m) for m in (3, 1, 7, 2)]
        assert [tree.cut(m) for m in (3, 1, 7, 2)] == first

    def test_invalid_cut_rejected(self):
        with pytest.raises(ValueError):
            Dendrogram([1.0, 2.0]).cut(0)
