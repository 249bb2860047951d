"""Smoke test of the seed sweep: two tiny-preset seeds, no timing.

The committed record (``experiments_seed_sweep.txt``, quick preset,
seeds 1-30) takes about half a minute; CI's ``paper-artifacts`` job
regenerates it.  Here the sweep runs end to end on two small universes
and its rendering is checked for shape: one row per claim with its
summary columns, one row per shape check with a count that matches the
seeds it lists.
"""

import pytest

from repro.experiments.config import tiny
from repro.experiments.seed_sweep import (
    CLAIMS,
    SHAPE_CHECKS,
    render_seed_sweep,
    run_seed_sweep,
)

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def results():
    return run_seed_sweep(tiny, SEEDS)


def test_every_seed_reports_every_claim(results):
    assert [r.seed for r in results] == list(SEEDS)
    for result in results:
        assert set(result.claims) == {claim for claim, _ in CLAIMS}
        assert 0 <= result.claims["T5 multi-states models F-significant (of 6)"] <= 6


def test_rendering_has_a_row_per_claim_and_per_check(results):
    text = render_seed_sweep(results)
    lines = text.splitlines()
    assert lines[0] == "Claims over 2 seeds (1..2)"
    for claim, paper in CLAIMS:
        (row,) = [line for line in lines if line.startswith(claim + "  ")]
        # seed 7 is not in the sweep, so its column reads "-".
        assert row.split()[len(claim.split()) + bool(paper)] == "-"
    for check in SHAPE_CHECKS:
        (row,) = [line for line in lines if line.startswith(check + "  ")]
        count, which = row[len(check):].split(maxsplit=1)
        listed = [] if which.strip() == "-" else which.split(", ")
        seeds = {int(label.split()[0]) for label in listed}
        assert int(count) == len(seeds) and seeds <= set(SEEDS)
