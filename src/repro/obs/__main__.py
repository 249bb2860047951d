"""repro.obs CLI: one human reader for each file the system writes.

Usage::

    python -m repro.obs --snapshot obs-snapshot.json
    python -m repro.obs trace trace.jsonl --slowest 5
    python -m repro.obs trace merged-trace.jsonl --tree s000-q000003

``--snapshot`` renders an obs snapshot (``python -m repro.experiments
--snapshot-out PATH`` writes one at the end of a run) as the one-screen
dashboard.

The ``trace`` subcommand reads a span JSONL file (``--trace-out``, or a
coordinator-merged fleet trace) and prints every span aggregated by
name, then the per-stage critical-path breakdown of its requests, the
slowest-N trace table, and one expanded span tree.
"""

from __future__ import annotations

import argparse
import sys

from .expose import read_snapshot, render_dashboard
from .trace_analysis import load_trace_file, render_trace_report


def _print(text: str) -> int:
    try:
        print(text)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        pass
    return 0


def trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs trace",
        description="Analyze a span JSONL trace file (single-run or "
        "coordinator-merged): spans by name, stage breakdown, slowest "
        "traces, span tree.",
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
    return _print(render_trace_report(spans, slowest=args.slowest, tree=args.tree))


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
    args = parser.parse_args(argv)
    try:
        payload = read_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        parser.error(f"--snapshot {args.snapshot}: {exc}")
    return _print(render_dashboard(payload))


if __name__ == "__main__":
    sys.exit(main())
