"""Nothing in ``repro`` needs scipy at run time.

Both p-values the paper's tests read (the overall F test, §5, and the
probing-cost estimator's t screen, footnote 7) come from
``repro.mlr.ols.incomplete_beta``; scipy is a test dependency only, the
reference those p-values are checked against.  A fresh interpreter with
scipy blocked (``sys.modules["scipy"] = None`` makes every import of it
raise) must therefore import every ``repro`` module, both command-line
entry points included, derive a model, read its F-test p-value, and
calibrate a ``ProbingCostEstimator``, whose backward elimination reads
``t_pvalues``.  One stray import anywhere fails here, and only a fresh
process shows it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

sys.modules["scipy"] = None

import importlib, json, pkgutil

import repro

imported = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in imported:
    importlib.import_module(name)

from repro.core import G1, CostModelBuilder, ProbingCostEstimator
from repro.env import EnvironmentMonitor
from repro.workload import make_site

site = make_site("cold", environment_kind="uniform", scale=0.01, seed=3)
builder = CostModelBuilder(site.database)
outcome = builder.build(G1, site.generator.queries_for(G1, 40), algorithm="iupma")
estimator = ProbingCostEstimator()
fit = estimator.calibrate(builder.probe, EnvironmentMonitor(site.environment), samples=30)
print(json.dumps({
    "imported": imported,
    "f_pvalue": outcome.model.f_pvalue,
    "t_pvalues": fit.t_pvalues.tolist(),
    "scipy_loaded": sorted(name for name in sys.modules if name.startswith("scipy.")),
}))
"""


def test_importing_repro_loads_no_scipy_distribution_module():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    for name in (
        "repro.experiments.__main__",
        "repro.obs.__main__",
        "repro.loadgen",
        "repro.serving",
        "repro.mlr.ols",
    ):
        assert name in report["imported"]
    assert 0.0 <= report["f_pvalue"] < 0.01
    assert report["t_pvalues"] and all(0.0 <= p <= 1.0 for p in report["t_pvalues"])
    assert report["scipy_loaded"] == []
