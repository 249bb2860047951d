"""The engine's row-at-a-time kernels, for tests that compare them with numpy.

Nothing in the engine selects a kernel by mode: the data does.  Two seams
decide, and both say "numpy" only where numpy agrees with Python exactly:

* ``Comparison.evaluate_batch`` returns ``None`` for a comparison numpy
  cannot decide exactly (an object column, a constant that does not
  convert), and ``access.selection_mask`` then evaluates the whole
  predicate row at a time.  ``And`` / ``Or`` / ``Not`` compose it;
  ``TruePredicate`` is answered without a kernel.
* ``joins._numpy_orders_like_python`` returns ``False`` for join keys numpy
  would order differently from ``==`` (NaN, mixed INT/FLOAT beyond
  ±2**53, object arrays), and ``joins._match_pairs`` then matches through
  hash buckets over the Python values.

:func:`row_at_a_time` patches both to their fallback answers, so every
predicate and every key match takes the path the data reaches for object
columns, NaN keys and integers float64 cannot hold.  Histograms have one
build; ``reference_histogram`` below is the row-at-a-time one it must equal.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.engine import joins
from repro.engine.histogram import EquiDepthHistogram
from repro.engine.predicate import Comparison


@contextmanager
def row_at_a_time():
    """Run the enclosed block on the engine's row-at-a-time kernels."""
    with mock.patch.object(Comparison, "evaluate_batch", lambda self, table: None):
        with mock.patch.object(joins, "_numpy_orders_like_python", lambda lkeys, rkeys: False):
            yield


#: Both kernels by name: what the data picks, then the fallback for all data.
KERNELS = {"default": nullcontext, "row_at_a_time": row_at_a_time}


def reference_histogram(values, num_buckets: int) -> EquiDepthHistogram:
    """Row-at-a-time reference for :meth:`EquiDepthHistogram.build`."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot build a histogram from no values")
    n = len(data)
    num_buckets = min(num_buckets, n)
    boundaries = [data[0]]
    counts = []
    distinct = []
    start = 0
    for b in range(num_buckets):
        end = round((b + 1) * n / num_buckets)
        end = max(end, start + 1)
        # Never split a run of duplicates across buckets: extend the
        # bucket to cover the whole run so boundaries stay honest.
        while end < n and data[end] == data[end - 1]:
            end += 1
        bucket = data[start:end]
        counts.append(len(bucket))
        distinct.append(len(set(bucket)))
        boundaries.append(bucket[-1] if end >= n else data[end])
        start = end
        if start >= n:
            break
    boundaries[-1] = data[-1]
    return EquiDepthHistogram(tuple(boundaries), tuple(counts), tuple(distinct))
