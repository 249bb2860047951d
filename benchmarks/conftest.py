"""Shared configuration for the paper-artifact shape tests.

Each file regenerates one table or figure of the paper at the quick
preset — the preset EXPERIMENTS.md quotes — asserts the paper's
qualitative shape and prints the reproduced rows/series (``pytest -s``
to see them).  The runs are deterministic and share class experiments
through the harness memo, so the whole directory takes seconds.
"""

import pytest

from repro.experiments.config import quick


@pytest.fixture(scope="session")
def config():
    """The quick experiment preset shared by all benches."""
    return quick(seed=7)
