"""repro.serving — the serving front end of the MDBS.

Puts a model-version-aware plan cache and request bookkeeping (tickets,
stats, trace ids) in front of the
:class:`~repro.mdbs.server.MDBSServer`, on the caller's thread.  Every
decision is the server's:

    request → plan cache (keyed on query + the contention states the
                          server's optimizer resolves now, invalidated
                          on registry events)
            → on a miss: MDBSServer.optimize (the one plan choice)
            → execution on the MDBS server

Every submitted request is finished when ``submit`` returns; a process
serves on one thread, and scale-out is more processes
(:mod:`repro.loadgen`).  See DESIGN.md ("Serving") for the architecture;
the probe and plan-cache work a request may cost is pinned in
``tests/serving/test_frontend.py``, and ``python -m bench``
(``serve_hot`` / ``serve_cold``) holds the throughput numbers.
"""

from .config import ServingConfig
from .frontend import ServingFrontEnd, ServingStats, ServingTicket
from .plan_cache import PlanCache, query_key

__all__ = [
    "PlanCache",
    "ServingConfig",
    "ServingFrontEnd",
    "ServingStats",
    "ServingTicket",
    "query_key",
]
