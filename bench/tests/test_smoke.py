"""Two smoke runs agree exactly on every count and simulated number."""

from __future__ import annotations

import json
import subprocess
import sys

from bench import OUT_DIR, ROOT
from bench.spec import PER_LAYER, WORKLOADS

EXACT = (
    "sim_cost_s_per_op", "est_good_pct", "est_verygood_pct", "recover_queries",
    "fail_frac",
)


def _smoke(path) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--reps", "1", "--out", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(path.read_text(encoding="utf-8"))


def test_two_smoke_runs_agree_exactly():
    first, second = _smoke(OUT_DIR / "smoke_a.json"), _smoke(OUT_DIR / "smoke_b.json")
    assert set(first["workloads"]) == {w.name for w in WORKLOADS}
    for name, workload in first["workloads"].items():
        other = second["workloads"][name]
        assert workload["failed"] == other["failed"] == 0
        assert workload["attempted"] == other["attempted"]
        assert workload["counts"] == other["counts"]
        assert workload["info"] == other["info"]
        for metric in EXACT:
            assert workload["end_to_end"][metric] == other["end_to_end"][metric], (
                name, metric,
            )
        # Every per-layer metric is reported for every workload, by name.
        assert set(workload["per_layer"]) == {metric.name for metric in PER_LAYER}
    for key in ("nproc", "platform", "python", "numpy", "scipy", "git_sha", "seed", "reps"):
        assert key in first["env"]
