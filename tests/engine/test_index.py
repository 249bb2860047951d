"""Unit tests for repro.engine.index."""

import pytest

from repro.engine.errors import CatalogError
from repro.engine.index import Index, IndexKind

from ..conftest import make_test_table


class TestIndexBuild:
    def test_nonclustered_lookup(self):
        table = make_test_table(rows=300)
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        value = table.rows()[17][0]
        rids = index.range_lookup(value, value)
        assert 17 in rids
        assert all(table.rows()[r][0] == value for r in rids)

    def test_missing_column_rejected(self):
        table = make_test_table(rows=10)
        with pytest.raises(CatalogError):
            Index("i", table, "zz", IndexKind.NONCLUSTERED)

    def test_clustered_requires_sorted_table(self):
        table = make_test_table(rows=50)
        with pytest.raises(CatalogError):
            Index("i", table, "a", IndexKind.CLUSTERED)

    def test_clustered_after_cluster_on(self):
        table = make_test_table(rows=50)
        table.cluster_on("a")
        index = Index("i", table, "a", IndexKind.CLUSTERED)
        assert index.kind is IndexKind.CLUSTERED

    def test_height_positive(self):
        table = make_test_table(rows=2000)
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        assert index.height >= 2


class TestRangeLookup:
    def test_range_matches_naive(self):
        table = make_test_table(rows=400)
        index = Index("i", table, "b", IndexKind.NONCLUSTERED)
        rids = index.range_lookup(20, 40)
        expected = sorted(
            i for i, row in enumerate(table.rows()) if 20 <= row[1] <= 40
        )
        assert sorted(rids) == expected

    def test_range_in_key_order(self):
        table = make_test_table(rows=400)
        index = Index("i", table, "b", IndexKind.NONCLUSTERED)
        rids = index.range_lookup(10, 90)
        keys = [table.rows()[r][1] for r in rids]
        assert keys == sorted(keys)


class TestClusteringRatio:
    def test_clustered_ratio_is_one(self):
        table = make_test_table(rows=200)
        table.cluster_on("a")
        index = Index("i", table, "a", IndexKind.CLUSTERED)
        assert index.clustering_ratio() == 1.0

    def test_random_heap_ratio_low(self):
        table = make_test_table(rows=5000)
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        ratio = index.clustering_ratio()
        assert 0.0 <= ratio < 0.3

    def test_sorted_heap_nonclustered_ratio_high(self):
        table = make_test_table(rows=5000)
        table.cluster_on("a")
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        assert index.clustering_ratio() > 0.9

    def test_ratio_cached(self):
        table = make_test_table(rows=500)
        index = Index("i", table, "a", IndexKind.NONCLUSTERED)
        assert index.clustering_ratio() == index.clustering_ratio()
        assert index._clustering_ratio is not None
