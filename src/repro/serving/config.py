"""Serving-front-end configuration: plan cache and trace ids.

One frozen dataclass carries every serving knob.  A front end serves on
its caller's thread, one request at a time; a process that wants more
parallelism runs more processes (:class:`~repro.loadgen.coordinator.
Coordinator` does, over shards).  ``workers``, ``queue_depth`` and
``admission_policy`` remain as fields so existing configurations keep
constructing, and each accepts only what that design means: one worker,
a positive queue depth that nothing queues into, and ``"block"`` (a
request is never dropped).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one :class:`~repro.serving.frontend.ServingFrontEnd`."""

    #: Requests run on the caller's thread: always 1.
    workers: int = 1
    #: Validated (>= 1); nothing waits in a queue.
    queue_depth: int = 128
    #: Always "block": every submitted request is executed.
    admission_policy: str = "block"
    #: Serve repeated optimizations from the plan cache.
    plan_cache: bool = True
    #: Prefix for generated trace ids (loadgen shards use ``s{index}-``
    #: so coordinator-merged traces stay globally unique).
    trace_id_prefix: str = ""

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ValueError(
                f"workers must be 1, not {self.workers!r}: a front end serves "
                "on its caller's thread; run more processes to scale out"
            )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.admission_policy != "block":
            raise ValueError(
                f"admission_policy must be 'block', not {self.admission_policy!r}: "
                "a request submitted on the caller's thread is always executed"
            )
