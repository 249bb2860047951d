"""The switch that forces the engine's row-at-a-time kernels.

Every operator has one implementation, over selection vectors and
column arrays (see DESIGN.md §7).  Inside it, two kinds of decision —
does this row satisfy the predicate, do these two keys match — are made
by numpy over typed arrays where numpy agrees with Python exactly, and
by Python over the values otherwise (object-dtype columns, NaN keys,
integers float64 cannot hold); histogram construction has the same two
kernels.  The data picks the kernel.  This switch overrides the data:
with it off, every predicate is evaluated row at a time and every join
key matched through hash buckets — the reference the property suite
(``tests/engine/test_vectorized_props.py``) compares against.

numpy kernels are the default.  Disable them globally with
:func:`set_enabled` (or the ``REPRO_SCALAR_ENGINE=1`` environment
variable, read once at import), or locally with :func:`force_scalar`.

The flag is intentionally process-global rather than per-database:
the two kernels are semantically identical, so the only reasons to
switch are testing and debugging, and a single switch keeps every call
site (including module-level helpers with no database in scope) honest.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Vectorized unless REPRO_SCALAR_ENGINE is set at import.
_enabled = os.environ.get("REPRO_SCALAR_ENGINE", "") not in ("1", "true", "yes")


def enabled() -> bool:
    """Whether the vectorized hot paths are active."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Switch the process between vectorized (True) and scalar (False)."""
    global _enabled
    _enabled = bool(flag)


@contextmanager
def force_scalar():
    """Run the enclosed block on the scalar reference path."""
    previous = enabled()
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def force_vectorized():
    """Run the enclosed block on the vectorized path."""
    previous = enabled()
    set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)
