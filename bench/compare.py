"""``python -m bench --compare A.json B.json``: B against baseline A.

One row per workload x end-to-end metric — the difference in the
worsening direction against the metric's bound — and one row per
workload x count, which must be equal.  A worsening beyond the bound is
a BREACH.  Within the bound, a timing metric whose repetitions spread
(quartile distance / median, either side) wider than the bound is
*unresolved*, not unchanged.  A demoted metric (``spec.EndToEnd``) is
printed as ``bench.<name>`` and never gates.  A workload or metric
present on one side only is a BREACH.  Non-zero exit on a breach.
"""

from __future__ import annotations

import json
from pathlib import Path

from .spec import DIAGNOSTIC, END_TO_END


def _spread(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(entry["value"])


def _metric_row(name: str, metric, entry_a: dict | None, entry_b: dict | None) -> tuple:
    if entry_a is None or entry_b is None:
        present = ["n/a" if entry is None else entry["value"] for entry in (entry_a, entry_b)]
        return (name, metric.name, *present, None, metric.bound, "BREACH")
    value_a, value_b = entry_a["value"], entry_b["value"]
    worse = value_b - value_a if metric.better == "lower" else value_a - value_b
    if not metric.absolute:
        worse = worse / abs(value_a) if value_a else (0.0 if not worse else float("inf"))
    if metric.demoted:
        label, verdict = f"{DIAGNOSTIC}.{metric.name}", "diagnostic"
    elif worse > metric.bound:
        label, verdict = metric.name, "BREACH"
    elif not metric.absolute and max(_spread(entry_a), _spread(entry_b)) > metric.bound:
        label, verdict = metric.name, "unresolved"
    else:
        label, verdict = metric.name, "ok"
    return (name, label, value_a, value_b, worse, metric.bound, verdict)


def compare(a: dict, b: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, worsening, bound, verdict)`` and breach flag."""
    rows: list[tuple] = []
    names = list(a["workloads"]) + [n for n in b["workloads"] if n not in a["workloads"]]
    for name in names:
        workload_a, workload_b = a["workloads"].get(name), b["workloads"].get(name)
        if workload_a is None or workload_b is None:
            sides = ["missing" if w is None else "present" for w in (workload_a, workload_b)]
            rows.append((name, "workload", *sides, None, 0.0, "BREACH"))
            continue
        for metric in END_TO_END:
            entry_a = workload_a["end_to_end"].get(metric.name)
            entry_b = workload_b["end_to_end"].get(metric.name)
            if entry_a is not None or entry_b is not None:
                rows.append(_metric_row(name, metric, entry_a, entry_b))
        counts_a, counts_b = workload_a["counts"], workload_b["counts"]
        for key in sorted(set(counts_a) | set(counts_b)):
            count_a, count_b = counts_a.get(key, "n/a"), counts_b.get(key, "n/a")
            verdict = "ok" if count_a == count_b else "BREACH"
            rows.append((name, f"counts.{key}", count_a, count_b, None, 0.0, verdict))
    return rows, any(row[-1] == "BREACH" for row in rows)


def render(rows: list[tuple]) -> str:
    lines = [
        f"{'workload':<11} {'metric':<27} {'A':>12} {'B':>12} {'worse by':>10} "
        f"{'bound':>8}  verdict"
    ]

    def cell(value) -> str:
        return f"{value:>12.6g}" if isinstance(value, (int, float)) else f"{value:>12}"

    for workload, metric, a, b, worse, bound, verdict in rows:
        delta = f"{worse:>10.4g}" if worse is not None else f"{'':>10}"
        lines.append(
            f"{workload:<11} {metric:<27} {cell(a)} {cell(b)} {delta} {bound:>8g}  {verdict}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    rows, breach = compare(a, b)
    print(render(rows))
    return 1 if breach else 0
