"""Shared MDBS test fixtures: a small two-site multidatabase system."""

import pytest

from repro.core.builder import CostModelBuilder
from repro.core.classification import G1, G3
from repro.core.probing import ProbingCostEstimator
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.server import MDBSServer
from repro.workload import make_site

MDBS_TABLES = ["R1", "R2", "R3", "R4"]


@pytest.fixture(scope="session")
def mini_mdbs():
    """Two dynamic sites with G1 and G3 cost models registered."""
    oracle = make_site(
        "oracle_site", profile=ORACLE_LIKE, environment_kind="uniform",
        scale=0.01, seed=61,
    )
    db2 = make_site(
        "db2_site", profile=DB2_LIKE, environment_kind="uniform",
        scale=0.01, seed=62,
    )
    server = MDBSServer()
    sites = {site.name: site for site in (oracle, db2)}
    for site in sites.values():
        server.register_agent(MDBSAgent(site.database))
        builder = CostModelBuilder(site.database)
        for query_class, count in ((G1, 80), (G3, 100)):
            queries = site.generator.queries_for(query_class, count, tables=MDBS_TABLES)
            outcome = builder.build(query_class, queries, algorithm="iupma")
            server.store_cost_model(site.name, outcome.model)
    return server, sites


def calibrate(agent, samples=40, interval_seconds=45.0):
    """Give *agent* an eq.-(2) estimator calibrated on its own probe."""
    estimator = ProbingCostEstimator()
    estimator.calibrate(
        agent.probe, agent.monitor, samples=samples, interval_seconds=interval_seconds
    )
    agent.estimator = estimator
