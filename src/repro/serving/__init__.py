"""repro.serving — the concurrent serving front end of the MDBS.

Puts a worker pool, admission control, a model-version-aware plan
cache, and cross-request probe sharing in front of the synchronous
:class:`~repro.mdbs.server.MDBSServer`:

    requests → admission (bounded queue, block/reject, deadlines)
             → worker pool
             → plan cache (keyed on query + contention states,
                           invalidated on registry events)
             → global optimizer (shared, TTL-cached, single-flight
                                 probing through the ProbingService)
             → per-site-locked execution on the MDBS server

See DESIGN.md ("Serving") for the architecture diagram; the probe and
plan-cache work a request may cost is pinned in
``tests/serving/test_frontend.py``, and ``python -m bench``
(``serve_hot`` / ``serve_cold``) holds the throughput numbers.
"""

from .config import ADMISSION_POLICIES, ServingConfig
from .frontend import ServingFrontEnd, ServingStats, ServingTicket, TICKET_STATUSES
from .plan_cache import PlanCache, query_key

__all__ = [
    "ADMISSION_POLICIES",
    "PlanCache",
    "ServingConfig",
    "ServingFrontEnd",
    "ServingStats",
    "ServingTicket",
    "TICKET_STATUSES",
    "query_key",
]
