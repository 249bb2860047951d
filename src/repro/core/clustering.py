"""Agglomerative hierarchical clustering of probing costs (for ICMA).

§3.3: "An agglomerative hierarchical algorithm is often used for data
clustering.  The main idea [...] is to place each data object in its own
cluster initially and then gradually merge clusters into larger and
larger clusters until a desired number of clusters have been found.  The
criterion used to merge two clusters is to make their distance minimized
[... using] the distance between the centroids."

Probing costs are one-dimensional, which lets us exploit a classical
fact: under centroid-distance linkage on the line, the globally closest
pair of clusters is always adjacent in sorted order, so only neighbour
merges need to be considered.  The merge sequence does not depend on
where it stops, so one :class:`Dendrogram` per sample records it and
every cluster count is a cut of that one tree — ICMA tries several.
Building it takes a sort plus, for each of the n - 1 merges, one linear
scan for the leftmost smallest gap: O(n²) scalar steps in the worst
case, with the scan and the list edits done by builtins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Cluster:
    """A contiguous cluster of one-dimensional values."""

    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def centroid(self) -> float:
        return self.total / self.count

    def merged_with(self, other: "Cluster") -> "Cluster":
        return Cluster(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def extent(self) -> tuple[float, float]:
        return self.minimum, self.maximum


class Dendrogram:
    """The full centroid-linkage merge tree of a one-dimensional sample.

    Nodes ``0 .. n-1`` are the sorted values as singletons, in order;
    node ``n + t`` is the cluster made by merge ``t``.  Duplicate values
    start in one singleton each, exactly as the textbook algorithm says;
    ties in merge distance break toward the leftmost pair so the result
    is deterministic.
    """

    def __init__(self, values: Sequence[float]) -> None:
        data = sorted(float(v) for v in values)
        if not data:
            raise ValueError("cannot cluster an empty sample")
        # Per-node statistics, flat: singletons first, merges appended.
        self._count = [1] * len(data)
        self._total = list(data)
        self._minimum = list(data)
        self._maximum = list(data)
        #: merge t joined the clusters at positions (p, p + 1) of the
        #: centroid-ordered cluster list: (p, left node, right node).
        self._merges: list[tuple[int, int, int]] = []

        count, total = self._count, self._total
        alive = list(range(len(data)))  # node ids, in centroid order
        centroids = list(data)
        # Neighbour-only merging is exact for 1-D centroid linkage.
        gaps = [b - a for a, b in zip(centroids, centroids[1:])]
        while gaps:
            pos = gaps.index(min(gaps))  # leftmost smallest gap
            left, right = alive[pos], alive[pos + 1]
            self._merges.append((pos, left, right))
            alive[pos : pos + 2] = [len(count)]
            count.append(count[left] + count[right])
            total.append(total[left] + total[right])
            self._minimum.append(min(self._minimum[left], self._minimum[right]))
            self._maximum.append(max(self._maximum[left], self._maximum[right]))
            centroids[pos : pos + 2] = [total[-1] / count[-1]]
            del gaps[pos]
            if pos > 0:
                gaps[pos - 1] = centroids[pos] - centroids[pos - 1]
            if pos < len(gaps):
                gaps[pos] = centroids[pos + 1] - centroids[pos]

    def __len__(self) -> int:
        """Number of values clustered."""
        return len(self._merges) + 1

    def cut(self, num_clusters: int) -> list[Cluster]:
        """The clusters left when merging stops at *num_clusters*.

        Sorted by centroid (ascending); asking for more clusters than
        values returns the singletons.  Undoes the last merges from the
        root, so a cut costs O(num_clusters).
        """
        if num_clusters < 1:
            raise ValueError("num_clusters must be at least 1")
        nodes = [len(self._count) - 1]
        kept_merges = max(0, len(self) - num_clusters)
        for pos, left, right in reversed(self._merges[kept_merges:]):
            nodes[pos : pos + 1] = [left, right]
        return [
            Cluster(self._count[i], self._total[i], self._minimum[i], self._maximum[i])
            for i in nodes
        ]


def agglomerate(values: Sequence[float], num_clusters: int) -> list[Cluster]:
    """Cluster *values* into *num_clusters* groups by centroid linkage.

    One cut of the sample's :class:`Dendrogram`; callers that try several
    cluster counts on one sample should build the tree once and cut it.
    """
    return Dendrogram(values).cut(num_clusters)


def merge_small_clusters(clusters: list[Cluster], min_count: int) -> list[Cluster]:
    """Merge clusters with fewer than *min_count* members into their
    nearest (by centroid) neighbour.

    The paper prefers drawing *additional sample queries* to fill a thin
    cluster (§3.3) — the builder does that when it can; this function is
    the terminal fallback when resampling is exhausted, so that no data
    point is discarded as an outlier (also per §3.3: "no useful contention
    level points are ignored").
    """
    if min_count <= 1 or len(clusters) <= 1:
        return list(clusters)
    result = list(clusters)
    while len(result) > 1:
        small = [i for i, c in enumerate(result) if c.count < min_count]
        if not small:
            break
        i = small[0]
        if i == 0:
            j = 1
        elif i == len(result) - 1:
            j = i - 1
        else:
            left_gap = result[i].centroid - result[i - 1].centroid
            right_gap = result[i + 1].centroid - result[i].centroid
            j = i - 1 if left_gap <= right_gap else i + 1
        lo, hi = min(i, j), max(i, j)
        merged = result[lo].merged_with(result[hi])
        result[lo : hi + 1] = [merged]
    return result


def cluster_extents(clusters: Sequence[Cluster]) -> list[tuple[float, float]]:
    """[min, max] intervals of the clusters, in centroid order."""
    return [c.extent for c in clusters]
