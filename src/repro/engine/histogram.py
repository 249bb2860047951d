"""Equi-depth histograms for selectivity estimation.

The min/max/distinct statistics in :mod:`repro.engine.schema` assume
uniform value distributions.  Real catalogs keep histograms; so do we:
an equi-depth (equi-height) histogram stores bucket boundaries such that
every bucket holds (approximately) the same number of rows, which keeps
relative estimation error bounded even for skewed columns.

When a histogram is attached to a column's statistics, range and
equality selectivities interpolate within buckets instead of across the
whole [min, max] span.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over one numeric column.

    ``boundaries`` has ``num_buckets + 1`` entries: bucket i covers
    [boundaries[i], boundaries[i+1]) except the last, which is closed.
    ``counts[i]`` is the number of rows in bucket i; ``distinct[i]`` the
    number of distinct values in it (for equality estimates).
    """

    boundaries: tuple[float, ...]
    counts: tuple[int, ...]
    distinct: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.counts) + 1:
            raise ValueError("boundaries must have one more entry than counts")
        if len(self.counts) != len(self.distinct):
            raise ValueError("counts and distinct must align")
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("boundaries must be non-decreasing")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        # Exclusive prefix sums of `counts`, so estimate_le is O(log B)
        # instead of O(B) per call.  Not a dataclass field (the frozen
        # eq/repr/hash contract stays on the three logical fields), so it
        # is installed around the freeze.
        prefix = [0]
        for c in self.counts:
            prefix.append(prefix[-1] + c)
        object.__setattr__(self, "_rows_before", tuple(prefix))

    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    @property
    def total_rows(self) -> int:
        return self._rows_before[-1]

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, values: Sequence, num_buckets: int = 16) -> "EquiDepthHistogram":
        """Build from a column's values (numeric).

        One numpy sort, then one pass over the bucket cuts.  A bucket
        never splits a run of duplicates: a cut inside a run moves to
        the run's end (one ``searchsorted``), so boundaries stay honest.
        Boundaries, counts and distinct counts come out as Python floats
        and ints.
        """
        if num_buckets < 1:
            raise ValueError("num_buckets must be at least 1")
        data = np.sort(np.fromiter((float(v) for v in values), dtype=np.float64))
        if data.size == 0:
            raise ValueError("cannot build a histogram from no values")
        n = int(data.size)
        num_buckets = min(num_buckets, n)
        boundaries = [float(data[0])]
        counts: list[int] = []
        distinct: list[int] = []
        start = 0
        for b in range(num_buckets):
            end = round((b + 1) * n / num_buckets)
            end = max(end, start + 1)
            if end < n and data[end] == data[end - 1]:
                # Jump past the whole duplicate run in one shot.
                end = int(np.searchsorted(data, data[end - 1], side="right"))
            bucket = data[start:end]
            counts.append(int(bucket.size))
            distinct.append(1 + int(np.count_nonzero(bucket[1:] != bucket[:-1])))
            boundaries.append(float(bucket[-1] if end >= n else data[end]))
            start = end
            if start >= n:
                break
        boundaries[-1] = float(data[-1])
        return cls(tuple(boundaries), tuple(counts), tuple(distinct))

    # -- estimation -------------------------------------------------------------

    def _bucket_of(self, value: float) -> int:
        """Bucket index containing *value*, clamped to [0, num_buckets-1]."""
        idx = bisect.bisect_right(self.boundaries, value) - 1
        return min(max(idx, 0), self.num_buckets - 1)

    def estimate_le(self, value: float) -> float:
        """Estimated fraction of rows with column <= value.

        Linear interpolation within the bucket, floored by the bucket's
        per-distinct-value mass so that an atom (a duplicate run) sitting
        at the bucket's left edge is never undercounted.
        """
        total = self.total_rows
        if total == 0:
            return 0.0
        if value < self.boundaries[0]:
            return 0.0
        if value >= self.boundaries[-1]:
            return 1.0
        idx = self._bucket_of(value)
        rows_before = self._rows_before[idx]
        lo = self.boundaries[idx]
        hi = self.boundaries[idx + 1]
        if hi > lo:
            within = (value - lo) / (hi - lo)
        else:
            within = 1.0
        in_bucket = within * self.counts[idx]
        atom = self.counts[idx] / max(1, self.distinct[idx])
        return (rows_before + max(in_bucket, atom)) / total

    def estimate_eq(self, value: float) -> float:
        """Estimated fraction of rows equal to *value*."""
        total = self.total_rows
        if total == 0 or value < self.boundaries[0] or value > self.boundaries[-1]:
            return 0.0
        idx = self._bucket_of(value)
        d = max(1, self.distinct[idx])
        return (self.counts[idx] / d) / total
