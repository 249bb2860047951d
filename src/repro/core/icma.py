"""ICMA: Iterative Clustering with Merging Adjustment.

Same iterate-and-adjust loop as IUPMA, but each candidate partition comes
from agglomerative hierarchical clustering of the sampled probing costs
(§3.3), so subrange boundaries follow the *actual distribution* of the
contention level instead of being fixed uniform cut points.  Designed for
dynamic environments whose contention level is non-uniform with clusters
(the Table 6 / Figure 10 scenario).

Thin clusters: the paper prefers drawing additional sample queries so
every cluster meets the regression minimum.  The collection layer
(:class:`repro.core.builder.CostModelBuilder`) handles that oversampling;
at this level, clusters still below the floor are merged into their
nearest neighbour rather than discarded, so "no useful contention level
points are ignored".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .clustering import Dendrogram, cluster_extents, merge_small_clusters
from .iupma import StateDeterminationResult, StatesConfig, determine_states
from .partition import ContentionStates, partition_from_intervals


def clustered_partitioner(probing: np.ndarray, floor: int):
    """Build the ICMA partitioner for a probing-cost sample."""
    probing_arr = np.asarray(probing, dtype=float).reshape(-1)
    cmin = float(probing_arr.min())
    cmax = float(probing_arr.max())
    # The merge order does not depend on m: one tree, cut per candidate
    # (a constant sample admits no m > 1, so it needs no tree).
    dendrogram = Dendrogram(probing_arr.tolist()) if cmin < cmax else None

    def partitioner(m: int) -> Optional[ContentionStates]:
        if m == 1:
            return ContentionStates(cmin, cmax)
        if cmin == cmax:
            return None
        clusters = dendrogram.cut(m)
        clusters = merge_small_clusters(clusters, floor)
        if len(clusters) != m:
            return None  # the sample does not support m well-filled clusters
        try:
            return partition_from_intervals(cluster_extents(clusters), cmin, cmax)
        except ValueError:
            # Degenerate extents (e.g. duplicate probing costs producing
            # touching clusters at the range edge): treat as infeasible.
            return None

    return partitioner


def determine_states_icma(
    X: np.ndarray,
    y: np.ndarray,
    probing: np.ndarray,
    variable_names: tuple[str, ...],
    config: StatesConfig = StatesConfig(),
) -> StateDeterminationResult:
    """ICMA: Algorithm 3.1 with clustering-based candidate partitions."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    floor = config.obs_floor(X.shape[1])
    partitioner = clustered_partitioner(probing, floor)
    return determine_states(
        X, y, probing, variable_names, partitioner, config, algorithm="icma"
    )
