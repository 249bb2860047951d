"""The full MDBS loop under shifting contention.

Derives per-site models through the server's lifecycle wiring
(``register_model_classes``), then steps the load builders across two
contention levels and checks that

* ``optimize()`` + ``execute()`` estimates stay within a 2x band of the
  observed cost at *both* levels, and
* the contention state the optimizer resolves actually tracks the load.
"""

import pytest

from repro.core import G1, G3
from repro.engine import Comparison
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.mdbs import GlobalJoinQuery, MDBSAgent, MDBSServer
from repro.workload import make_site

TABLES = ["R1", "R2", "R3", "R4"]
# Mid-range contention levels: the models were derived under a uniform
# 0..1 load, so the band edges (where the fit extrapolates) are avoided.
LOW, HIGH = 0.3, 0.8
SAMPLE_COUNTS = {"G1": 80, "G3": 100}


@pytest.fixture(scope="module")
def loop_mdbs():
    server = MDBSServer()
    sites = {}
    for name, profile, seed in (("alpha", ORACLE_LIKE, 81), ("beta", DB2_LIKE, 82)):
        site = make_site(
            name, profile=profile, environment_kind="uniform", scale=0.01, seed=seed
        )
        sites[name] = site
        server.register_agent(MDBSAgent(site.database))
        server.register_model_classes(
            name,
            (G1, G3),
            lambda query_class, n, site=site: site.generator.queries_for(
                query_class, n, tables=TABLES
            ),
            sample_count=lambda query_class: SAMPLE_COUNTS[query_class.label],
        )
    return server, sites


@pytest.fixture
def globalq():
    return GlobalJoinQuery(
        "alpha",
        "R2",
        "beta",
        "R3",
        "a4",
        "a4",
        ("R2.a1", "R3.a2"),
        left_predicate=Comparison("a3", "<", 500),
        right_predicate=Comparison("a7", ">", 25000),
    )


def run_at(server, sites, query, level):
    for site in sites.values():
        site.load_builder.constant(level)
    plan, _ = server.optimize(query)
    execution = server.execute(query, plan)
    return plan, execution


def select_states(plan):
    return [e.state for e in plan.estimates if e.class_label == "G1"]


class TestShiftingContention:
    def test_estimates_track_observed_across_load_levels(self, loop_mdbs, globalq):
        server, sites = loop_mdbs
        for level in (LOW, HIGH):
            plan, execution = run_at(server, sites, globalq, level)
            estimated = execution.estimated_seconds
            observed = execution.observed_seconds
            ratio = max(
                estimated / max(observed, 1e-9), observed / max(estimated, 1e-9)
            )
            assert ratio <= 2.0, (
                f"level={level}: estimated {estimated:.3f}s vs observed "
                f"{observed:.3f}s (ratio {ratio:.2f})"
            )
            assert execution.cardinality > 0

    def test_resolved_state_follows_load(self, loop_mdbs, globalq):
        server, sites = loop_mdbs
        low_plan, _ = run_at(server, sites, globalq, LOW)
        high_plan, _ = run_at(server, sites, globalq, HIGH)
        low_states = select_states(low_plan)
        high_states = select_states(high_plan)
        assert all(h >= lo for h, lo in zip(high_states, low_states))
        assert sum(high_states) > sum(low_states)
