"""The engine's row-at-a-time kernels, for tests that compare them with numpy.

Nothing in the engine selects a kernel by mode: the data does.  Two seams
decide, and both say "numpy" only where numpy agrees with Python exactly:

* ``Comparison.evaluate_batch`` returns ``None`` for a comparison numpy
  cannot decide exactly (an object column, a constant that does not
  convert), and ``access.selection_mask`` then evaluates the whole
  predicate row at a time.  ``And`` / ``Or`` / ``Not`` compose it;
  ``TruePredicate`` is answered without a kernel.
* ``joins._numpy_orders_like_python`` returns ``False`` for join keys numpy
  would order differently from ``==`` (mixed INT/FLOAT beyond ±2**53,
  object arrays), and ``joins._match_pairs`` then matches through
  hash buckets over the Python values.

:func:`row_at_a_time` patches both to their fallback answers, so every
predicate and every key match takes the path the data reaches for object
columns and integers float64 cannot hold.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.engine import joins
from repro.engine.predicate import Comparison


@contextmanager
def row_at_a_time():
    """Run the enclosed block on the engine's row-at-a-time kernels."""
    with mock.patch.object(Comparison, "evaluate_batch", lambda self, table: None):
        with mock.patch.object(joins, "_numpy_orders_like_python", lambda lkeys, rkeys: False):
            yield


#: Both kernels by name: what the data picks, then the fallback for all data.
KERNELS = {"default": nullcontext, "row_at_a_time": row_at_a_time}

