"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

Run as ``python -m bench`` from the repository root (see ``bench/README.md``).
The package lives outside ``src/`` on purpose: it measures the ``repro``
layers from outside, wrapping only their public callables, and a change
that claims a gain may not edit it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"


def ensure_src_on_path() -> None:
    """Make ``repro`` importable from this checkout, or exit non-zero.

    Called by the entry points only (never at import), so importing
    ``bench`` has no side effects.  A checkout without ``src/repro`` —
    the benchmark's files alone — has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'repro'} not found; nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
