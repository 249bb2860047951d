"""Cross-process determinism and CLI artifact-stream guards.

The artifacts' whole correctness story rests on one contract: a bench's
output is a pure function of (preset, seed), never of process, bench
order, or hash randomization.  These tests enforce it from the outside —
fresh interpreters, different ``PYTHONHASHSEED`` values, and the real
``python -m repro.experiments`` entry point.
"""

import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Computes one tiny class experiment and dumps everything that must be
#: reproducible: coefficients, state boundaries, and validation stats.
_FINGERPRINT_SCRIPT = """
import json
from repro.core.classification import G1
from repro.engine.profiles import ORACLE_LIKE
from repro.experiments.config import tiny
from repro.experiments.harness import run_class_experiment

result = run_class_experiment(ORACLE_LIKE, G1, tiny())
payload = {}
for name, model in result.models.items():
    payload[name] = {
        "coefficients": [float(c) for c in model.coefficients],
        "boundaries": list(model.states.boundaries),
        "cmin": model.states.cmin,
        "cmax": model.states.cmax,
        "terms": list(model.term_names),
    }
for name, report in result.reports.items():
    payload[name + "_validation"] = report.row()
payload["test_points"] = [
    [p.result_tuples, p.observed, p.estimated_multi,
     p.estimated_one_state, p.estimated_static]
    for p in result.test_points
]
print(json.dumps(payload, sort_keys=True))
"""


def _fresh_interpreter(argv: list[str], hashseed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def _run_python(code: str, hashseed: str) -> str:
    proc = _fresh_interpreter(["-c", code], hashseed)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestCrossProcessDeterminism:
    def test_fresh_interpreters_agree_exactly(self):
        """Two cold processes (different hash seeds) → identical results."""
        first = json.loads(_run_python(_FINGERPRINT_SCRIPT, hashseed="0"))
        second = json.loads(_run_python(_FINGERPRINT_SCRIPT, hashseed="12345"))
        assert first == second


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli_quick_seed7.txt"

#: Flags earlier versions accepted; there is no shim that swallows them.
REMOVED_FLAGS = (
    "--bench-out",
    "--engine-bench-out",
    "--loadgen-bench-out",
    "--model-race-out",
    "--trace-overhead-out",
    "--loadgen-trace-out",
    "--workers",
    "--fault-plan",
    "--trace-sample-rate",
    "--jobs",
    "--cache-dir",
    "--no-cache",
    "--clear-cache",
    "--full",
    "--drift-out",
    "--verbose",
)


def _run_cli(args: list[str], hashseed: str = "0") -> subprocess.CompletedProcess:
    return _fresh_interpreter(["-m", "repro.experiments", *args], hashseed)


@pytest.mark.slow
class TestCLI:
    def test_quick_seed7_stdout_matches_golden(self):
        """All 13 artifacts, byte for byte, as the pre-refactor CLI printed them.

        Two fresh interpreters under different hash seeds, side by side.
        Regenerate after an *intentional* change with
        ``PYTHONPATH=src python -m repro.experiments --preset quick --seed 7
        > tests/experiments/golden/cli_quick_seed7.txt``.
        """
        args = ["--preset", "quick", "--seed", "7"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            procs = list(pool.map(lambda seed: _run_cli(args, seed), ("0", "12345")))
        golden = GOLDEN_CLI.read_text()
        for proc in procs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == golden

    def test_only_flag_limits_benches(self):
        proc = _run_cli(["--preset", "tiny", "--only", "table4"])
        assert proc.returncode == 0, proc.stderr
        assert "Table 4" in proc.stdout
        assert "Table 5" not in proc.stdout
        assert "Figure 1" not in proc.stdout


@pytest.mark.parametrize("flag", REMOVED_FLAGS + ("--no-such-flag",))
def test_unknown_or_removed_flag_is_an_argparse_error(flag, capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--preset", "tiny", "--only", "table4", flag])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: " + flag in captured.err
    assert captured.out == ""


#: How many ``python -m`` usage examples each CLI's docstring carries.
USAGE_EXAMPLES = {"repro.experiments": 5, "repro.obs": 3}


@pytest.mark.parametrize("package", sorted(USAGE_EXAMPLES))
def test_help_prints_each_usage_example_on_its_own_line(package, capsys):
    cli = importlib.import_module(package + ".__main__")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    help_lines = capsys.readouterr().out.splitlines()
    examples = [line for line in cli.__doc__.splitlines() if line.startswith("    python -m")]
    assert len(examples) == USAGE_EXAMPLES[package]
    assert all(example in help_lines for example in examples)
