"""One workload's long-lived process: set up, repeat on command, report.

The parent (:mod:`bench.harness`) starts one of these per workload with
``PYTHONHASHSEED=0`` and drives it with JSON lines on stdin, one reply
line each: ``setup``, ``rep``, ``finish`` (with or without the traced pass).  Keeping the
workload's process alive across repetitions lets the parent interleave
workloads, so slow machine drift hits all of them alike.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ensure_src_on_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    ensure_src_on_path()
    from .session import Session  # imports repro, hence after the path is set

    # Replies own the real stdout; anything the program (or a pool
    # worker) prints goes to stderr and cannot corrupt the protocol.
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    # One CPU for the whole process.  The closed loop has one runnable
    # thread at a time (the client waits while the worker runs), and left
    # alone the scheduler flips between keeping the pair on one CPU and
    # spreading it over two, which moves serving throughput by a third
    # between otherwise identical runs (bench/README.md has the numbers).
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(all_cpus)})

    session = Session(args.workload, args.seed, args.smoke, all_cpus)
    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "setup":
            reply = session.setup()
        elif kind == "rep":
            reply = session.rep()
        elif kind == "finish":
            reply = session.finish(command["traced"])
        else:
            raise ValueError(f"unknown command {kind!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if kind == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
