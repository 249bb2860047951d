"""The parent: one child per workload, interleaved repetitions, the report.

Repetitions go round-robin across the workloads' long-lived processes,
never two at once, so at most two threads are runnable (the client and
the one serving worker) on this 2-core box.  Timing metrics are medians
over untraced repetitions with quartiles and sample counts; latencies
are pooled; per-layer numbers come from one traced set-up and
repetition that each child runs last, after its end-to-end numbers are
taken.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from . import ROOT
from .spec import END_TO_END, PER_LAYER, WORKLOADS

#: Facts of a repetition that must repeat exactly within a run.
_EXACT = ("sim_cost_s", "est_n", "est_good", "est_verygood", "recover_queries", "counts")


class Child:
    """A workload's process and the JSON-lines conversation with it."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        command = [
            sys.executable, "-m", "bench.child", "--workload", name, "--seed", str(seed)
        ]
        if smoke:
            command.append("--smoke")
        self.name = name
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            text=True,
        )

    def call(self, cmd: str, **arguments) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd, **arguments}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise RuntimeError(f"{self.name}: child exited with {code} during {cmd!r}")
        return json.loads(line)

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        for stream in (self.process.stdin, self.process.stdout):
            if stream and not stream.closed:
                stream.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(sorted_values: list[float], pct: float) -> float:
    index = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def _timing(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _pooled(reps: list[dict], pct: float) -> dict:
    """A latency percentile pooled over *reps*; quartiles over the per-rep values."""
    pooled = sorted(ms for rep in reps for ms in rep["latencies_ms"])
    q1, _, q3 = quartiles([percentile(sorted(rep["latencies_ms"]), pct) for rep in reps])
    return {"value": percentile(pooled, pct), "q1": q1, "q3": q3, "n": len(pooled)}


def summarize(setup: dict, reps: list[dict], finish: dict) -> dict:
    """One workload's metrics from its child's replies (*reps*: the untraced ones)."""
    first = reps[0]
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    repeatable = all(rep[key] == first[key] for rep in reps for key in _EXACT)
    if not repeatable:
        failed += 1  # a deterministic fact moved between repetitions
    est_n = first["est_n"]
    values: dict[str, dict | None] = {
        "setup_s": {"value": setup["setup_s"]},
        "ops_per_s": _timing([rep["ops"] / rep["wall_s"] for rep in reps]),
        "op_p50_ms": _pooled(reps, 50.0),
        "op_p99_ms": _pooled(reps, setup["tail_pct"]) | {"tail_pct": setup["tail_pct"]},
        "cpu_ms_per_op": _timing([1e3 * rep["cpu_s"] / rep["ops"] for rep in reps]),
        "peak_rss_mb": {"value": finish["peak_rss_mb"]},
        "fail_frac": {"value": failed / attempted},
        "sim_cost_s_per_op": {"value": first["sim_cost_s"] / first["ops"]},
        "est_good_pct": {"value": 100.0 * first["est_good"] / est_n} if est_n else None,
        "est_verygood_pct": (
            {"value": 100.0 * first["est_verygood"] / est_n} if est_n else None
        ),
        "recover_queries": (
            {"value": first["recover_queries"]}
            if first["recover_queries"] is not None
            else None
        ),
        "ops_per_refloop": _timing(
            [rep["ops"] / rep["wall_s"] * rep["calib_ms"] / 1e3 for rep in reps]
        ),
    }
    units = {metric.name: metric.unit for metric in END_TO_END}
    for name, entry in values.items():
        if entry is not None:
            entry["unit"] = units[name]
    result = {
        "info": setup["info"],
        "ops_per_rep": setup["ops_per_rep"],
        "attempted": attempted,
        "failed": failed,
        "repeatable": repeatable,
        "end_to_end": values,
        "counts": first["counts"],
        "calib_ms": [rep["calib_ms"] for rep in reps],
    }
    if "per_layer" in finish:
        units = {metric.name: metric.unit for metric in PER_LAYER}
        result["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in finish["per_layer"].items()
        }
        for key in ("layer_self_ms_per_op", "spans", "span_file", "spans_written"):
            result[key] = finish[key]
    return result


def environment(seed: int, versions: dict) -> dict:
    """Where and on what the numbers were taken."""

    def git(*arguments: str) -> str | None:
        try:
            done = subprocess.run(
                ("git", *arguments), cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **versions,
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "PYTHONHASHSEED": "0",
        "seed": seed,
    }


def run(
    names: list[str],
    seed: int,
    smoke: bool = False,
    trace: bool = True,
    reps: int = 5,
    seconds: float = 0.0,
) -> dict:
    """Run *names*: untraced repetitions, round-robin, until each workload
    has made *reps* of them and been measured for *seconds*; with *trace*,
    each child then makes one traced set-up and repetition.
    """
    known = [workload.name for workload in WORKLOADS]
    for name in names:
        if name not in known:
            raise ValueError(f"unknown workload {name!r}; pick from {known}")
    children: dict[str, Child] = {}
    setups: dict[str, dict] = {}
    replies: dict[str, list[dict]] = {name: [] for name in names}
    finishes: dict[str, dict] = {}
    try:
        for name in names:
            child = children[name] = Child(name, seed, smoke)
            setups[name] = child.call("setup")
            setups[name]["setup_s"] = time.perf_counter() - child.started
        started = time.perf_counter()
        rounds = 0
        while rounds < reps or time.perf_counter() - started < seconds * len(names):
            for name in names:
                replies[name].append(children[name].call("rep"))
            rounds += 1
        for name in names:
            finishes[name] = children[name].call("finish", traced=trace)
    finally:
        for child in children.values():
            child.close()
    workloads = {
        name: summarize(setups[name], replies[name], finishes[name]) for name in names
    }
    env = environment(seed, setups[names[0]]["versions"])
    env["reps"] = rounds
    env["smoke"] = smoke
    return {"schema_version": 1, "env": env, "workloads": workloads}


def render(result: dict) -> str:
    """Every metric by name with its unit, one line each."""
    lines = []
    for name, workload in result["workloads"].items():
        lines.append(f"== {name}  {json.dumps(workload['info'], sort_keys=True)}")
        for metric, entry in workload["end_to_end"].items():
            if entry is None:
                lines.append(f"{name} {metric} n/a")
                continue
            text = f"{name} {metric} {entry['value']:.6g} {entry['unit']}"
            if "q1" in entry:
                text += f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
            if "tail_pct" in entry:
                text += f"  tail_pct={entry['tail_pct']:g}"
            lines.append(text)
        for metric, entry in workload.get("per_layer", {}).items():
            lines.append(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        lines.append(
            f"{name} attempted={workload['attempted']} failed={workload['failed']} "
            f"repeatable={workload['repeatable']}"
        )
    return "\n".join(lines)
