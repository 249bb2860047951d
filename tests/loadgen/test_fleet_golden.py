"""Golden fleet payloads: loadgen's deterministic output, pinned across commits.

Each file under ``tests/loadgen/golden/`` is the canonical ``aggregate()``
JSON of one tiny-preset fleet run (seed 7, ``workers=1``) under one named
fault plan.  A change that moves the fleet on purpose regenerates them,
and the git diff of the goldens is its list of moved rows::

    PYTHONPATH=src python tests/loadgen/test_fleet_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import tiny
from repro.loadgen import Coordinator, default_loadgen_config

GOLDEN_DIR = Path(__file__).parent / "golden"
FAULT_PLANS = ("none", "outage", "mixed")


def fleet_payload(fault_plan: str) -> str:
    """The aggregate of the pinned run, one sorted key per line."""
    config = default_loadgen_config(tiny(7), fault_plan=fault_plan)
    report = Coordinator(config).run(workers=1)
    return json.dumps(report.aggregate(), sort_keys=True, indent=1) + "\n"


def golden_path(fault_plan: str) -> Path:
    return GOLDEN_DIR / f"fleet_tiny_seed7_{fault_plan}.json"


@pytest.mark.slow
@pytest.mark.parametrize("fault_plan", FAULT_PLANS)
def test_fleet_payload_matches_golden(fault_plan):
    golden = golden_path(fault_plan).read_text(encoding="utf-8")
    assert fleet_payload(fault_plan) == golden, (
        f"the {fault_plan!r} fleet payload moved; if on purpose, regenerate "
        "the goldens (see this module's docstring) and argue every moved row"
    )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for plan in FAULT_PLANS:
        golden_path(plan).write_text(fleet_payload(plan), encoding="utf-8")
        print(f"wrote {golden_path(plan)}")
