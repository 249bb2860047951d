"""repro.obs CLI: render obs snapshots as a dashboard or exposition.

Usage::

    python -m repro.obs --snapshot obs-snapshot.json
    python -m repro.obs --snapshot obs-snapshot.json --format prom
    python -m repro.obs --snapshot obs-snapshot.json --watch 2
    python -m repro.obs trace merged-trace.jsonl --slowest 5
    python -m repro.obs trace merged-trace.jsonl --tree s000-q000003

Snapshot files are written by :func:`repro.obs.expose.write_snapshot` —
``python -m repro.experiments --snapshot-out PATH`` produces one at the
end of a run, and a long-running simulation can rewrite the file
periodically; ``--watch N`` then re-reads and re-renders it every N
seconds, turning the snapshot file into a live one-screen dashboard.

The ``trace`` subcommand reads a (possibly coordinator-merged) span
JSONL file and prints the per-stage critical-path breakdown, the
slowest-N trace table, and one expanded span tree.
"""

from __future__ import annotations

import argparse
import sys
import time

from .expose import read_snapshot, render_dashboard, render_text
from .trace_analysis import load_trace_file, render_trace_report

FORMATS = ("dashboard", "prom")


def trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs trace",
        description="Analyze a span JSONL trace file (single-run or "
        "coordinator-merged): stage breakdown, slowest traces, span tree.",
    )
    parser.add_argument("file", metavar="TRACE_JSONL", help="span JSONL file")
    parser.add_argument(
        "--slowest",
        type=int,
        metavar="N",
        default=5,
        help="rows in the slowest-traces table (default 5)",
    )
    parser.add_argument(
        "--tree",
        metavar="TRACE_ID",
        default=None,
        help="expand this trace's span tree (default: the slowest trace)",
    )
    args = parser.parse_args(argv)
    if args.slowest <= 0:
        parser.error("--slowest must be positive")
    try:
        spans = load_trace_file(args.file)
    except (OSError, ValueError) as exc:
        parser.error(f"{args.file}: {exc}")
    try:
        print(render_trace_report(spans, slowest=args.slowest, tree=args.tree))
    except BrokenPipeError:
        return 0
    return 0


def render(payload: dict, fmt: str) -> str:
    if fmt == "prom":
        return render_text(payload.get("metrics", {}))
    return render_dashboard(payload)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--snapshot",
        metavar="PATH",
        required=True,
        help="obs snapshot JSON (written by --snapshot-out / write_snapshot)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="dashboard",
        help="dashboard (one-screen text) or prom (Prometheus exposition)",
    )
    parser.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        default=None,
        help="re-read and re-render the snapshot every SECONDS until ^C",
    )
    args = parser.parse_args(argv)
    if args.watch is not None and args.watch <= 0:
        parser.error("--watch must be positive")

    try:
        payload = read_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        parser.error(f"--snapshot {args.snapshot}: {exc}")
    try:
        print(render(payload, args.format))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        return 0

    if args.watch is None:
        return 0
    try:
        while True:
            time.sleep(args.watch)
            try:
                payload = read_snapshot(args.snapshot)
            except (OSError, ValueError) as exc:
                print(f"[watch] {args.snapshot}: {exc}", file=sys.stderr)
                continue
            # Clear-screen escape keeps the dashboard truly one-screen.
            print("\033[2J\033[H", end="")
            print(render(payload, args.format))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
