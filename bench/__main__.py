"""``python -m bench``: run the benchmark, or compare two of its outputs.

``python -m bench [--workload NAME]... [--reps N] [--seed N] [--out PATH]
[--no-trace] [--smoke]`` runs the workloads (all five by default), prints
every metric by name with its unit and writes the JSON to ``--out``.

The driver's contract (``BENCHMARK.json``) calls ``python -m bench --workload
NAME --seed N --seconds S --trace 0|1``: ``--seconds`` keeps the same loop
repeating until S seconds are measured (and at least 3 repetitions) and
prints the contract's JSON object as the last line; ``--trace 0`` is
``--no-trace``.

``python -m bench --compare A.json B.json`` gates B against A.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import OUT_DIR, ensure_src_on_path
from .compare import main as compare_main
from .harness import render, run
from .spec import MIN_REPS, WORKLOADS, driver_end_to_end, driver_per_layer


def driver_line(result: dict, name: str, traced: bool) -> dict:
    """The contract's last line for one workload."""
    workload = result["workloads"][name]
    metrics = {}
    if traced:
        end_to_end = workload["end_to_end"]
        for metric in driver_per_layer():
            entry = workload["per_layer"].get(metric.name)
            if entry is None:  # bench.<end-to-end metric>; 0 where undefined
                entry = end_to_end.get(metric.name.partition(".")[2])
            metrics[metric.name] = {
                "value": entry["value"] if entry else 0.0, "unit": metric.unit
            }
    else:
        for metric in driver_end_to_end():
            entry = workload["end_to_end"][metric.name]
            metrics[metric.name] = {"value": entry["value"], "unit": metric.unit}
    return {
        "correct": workload["failed"] == 0,
        "attempted": workload["attempted"],
        "failed": workload["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--seconds", type=float, help="driver contract: measure this long")
    args = parser.parse_args(argv)

    if args.compare:
        return compare_main(*args.compare)
    ensure_src_on_path()  # exits non-zero in a checkout without src/
    driver = args.seconds is not None
    selected = args.workload or names
    if driver and len(selected) != 1:
        parser.error("--seconds measures exactly one --workload")
    reps = args.reps if args.reps is not None else MIN_REPS if driver else 5
    if reps < 1:
        parser.error("--reps must be at least 1")
    result = run(
        selected, args.seed, smoke=args.smoke, trace=bool(args.trace),
        reps=reps, seconds=args.seconds or 0.0,
    )
    out = args.out or OUT_DIR / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(render(result))
    print(f"wrote {out}")
    failed = sum(workload["failed"] for workload in result["workloads"].values())
    if driver:
        print(json.dumps(driver_line(result, selected[0], bool(args.trace))))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
