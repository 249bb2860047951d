"""Cold start imports only what it uses.

Importing ``scipy.stats`` costs a process about a second and 44 MB, and
``repro`` needs only two survival functions from it, which
``repro.mlr.ols`` takes from ``scipy.special`` when a p-value is first
read.  A fresh interpreter that imports every ``repro`` module, both
command-line entry points included, must therefore hold neither
``scipy.stats`` nor ``scipy.special``; deriving a model then loads
``scipy.special`` and still not ``scipy.stats``.  One stray import
anywhere brings the whole cost back, and only a fresh process shows it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys

import repro

imported = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in imported:
    importlib.import_module(name)

def scipy_loaded():
    return {name: name in sys.modules for name in ("scipy.stats", "scipy.special")}

after_import = scipy_loaded()

from repro.core import G1, CostModelBuilder
from repro.workload import make_site

site = make_site("cold", environment_kind="uniform", scale=0.01, seed=3)
outcome = CostModelBuilder(site.database).build(
    G1, site.generator.queries_for(G1, 40), algorithm="iupma"
)
print(json.dumps({
    "imported": imported,
    "after_import": after_import,
    "f_pvalue": outcome.model.f_pvalue,
    "after_derive": scipy_loaded(),
}))
"""


def test_importing_repro_loads_no_scipy_distribution_module():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    report = json.loads(out.splitlines()[-1])
    for name in (
        "repro.experiments.__main__",
        "repro.obs.__main__",
        "repro.loadgen",
        "repro.serving",
        "repro.mlr.ols",
    ):
        assert name in report["imported"]
    assert report["after_import"] == {"scipy.stats": False, "scipy.special": False}
    assert 0.0 <= report["f_pvalue"] <= 1.0
    assert report["after_derive"] == {"scipy.stats": False, "scipy.special": True}
