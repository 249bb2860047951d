"""A workload's life inside its process: set-up, repetitions, the traced pass."""

from __future__ import annotations

import gc
import os
import resource
import statistics
from dataclasses import asdict

import numpy
import scipy

from . import OUT_DIR, workloads
from .layers import WRAP_POINTS, layer_metrics, layer_self_seconds, settle
from .spec import PER_LAYER
from .trace import Recorder, install, remove


class Session:
    def __init__(self, name: str, seed: int, smoke: bool, all_cpus: set[int]) -> None:
        self.name = name
        #: CPUs to hand back for the extras that start worker processes.
        self.all_cpus = all_cpus
        self.seed = seed
        self.sizes = workloads.SMOKE if smoke else workloads.STANDARD
        self.workload = None
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.calib_ms: list[float] = []
        self.reference = workloads.ReferenceLoop()

    def _set_up(self) -> None:
        self.workload = workloads.make(self.name, self.seed, self.sizes)
        self.workload.setup()
        # Set-up garbage must not trigger collections inside repetitions;
        # the collector itself stays on while measuring.
        gc.collect()
        gc.freeze()

    def setup(self) -> dict:
        self._set_up()
        self.reference.run()  # its first pass is cold and reads slow
        return {
            "info": self.workload.info(),
            "ops_per_rep": self.workload.ops_per_rep,
            "tail_pct": self.workload.tail_pct,
            "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        }

    def rep(self) -> dict:
        """One untraced repetition, the reference loop timed on either side."""
        before = self.reference.run()
        rep = self.workload.rep()
        calib = (before + self.reference.run()) / 2.0
        self.calib_ms.append(calib)
        self.rates.append(rep.ops / rep.wall_s)
        self.walls.append(rep.wall_s)
        return asdict(rep) | {"calib_ms": calib}

    def finish(self, traced: bool) -> dict:
        # Read before any wrapper exists: the traced pass below holds
        # spans and tickets in memory and builds a second universe.
        reply: dict = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        }
        if traced:
            reply |= self._traced_pass()
        self.workload.close()
        return reply

    def _traced_pass(self) -> dict:
        """Set up and repeat once more under the wrappers; the per-layer numbers."""
        self.workload.close()
        setup_recorder, recorder = Recorder(), Recorder()
        # Table generation, import and export are set-up work the layers
        # table reports, hence a traced set-up of its own.
        patches = install(setup_recorder, WRAP_POINTS)
        try:
            self._set_up()
        finally:
            remove(patches)
        patches = install(recorder, WRAP_POINTS)
        try:
            rep = self.workload.rep()
        finally:
            remove(patches)
        settle(recorder)
        per_layer = layer_metrics(recorder, setup_recorder, rep.ops, rep.wall_s)
        per_layer["bench.trace_overhead_frac"] = (
            1.0 - (rep.ops / rep.wall_s) / statistics.median(self.rates)
        )
        per_layer["bench.calib_ms"] = statistics.median(self.calib_ms)
        os.sched_setaffinity(0, self.all_cpus)
        per_layer.update(self.workload.trace_extras(statistics.median(self.walls)))
        for metric in PER_LAYER:  # a layer the workload never enters reads 0
            per_layer.setdefault(metric.name, 0.0)
        span_file = OUT_DIR / f"spans_{self.name}.jsonl"
        return {
            "per_layer": per_layer,
            "layer_self_ms_per_op": {
                layer: 1e3 * seconds / rep.ops
                for layer, seconds in sorted(layer_self_seconds(recorder).items())
            },
            "spans": {
                name: {
                    "calls_per_op": stats.calls / rep.ops,
                    "total_ms_per_op": 1e3 * stats.total_s / rep.ops,
                    "self_ms_per_op": 1e3 * stats.self_s / rep.ops,
                }
                for name, stats in sorted(recorder.stats().items())
            },
            "span_file": f"bench/out/{span_file.name}",
            "spans_written": recorder.write_jsonl(span_file),
        }
