"""Global query optimization across two autonomous local DBSs.

Builds the full MDBS of the paper's Figure 3: an Oracle-like site and a
DB2-like site (each under its own dynamic load), MDBS agents, a global
catalog holding derived multi-states cost models, and a global optimizer
that decides where to execute an inter-site join — then executes the
chosen plan for real and compares estimate vs observation.

Run:  python examples/global_optimization.py
"""

from repro.core import CostModelBuilder, G1, G3
from repro.engine import Comparison, DB2_LIKE, ORACLE_LIKE
from repro.mdbs import GlobalJoinQuery, MDBSAgent, MDBSServer
from repro.workload import make_site


def derive_models(server: MDBSServer, site) -> None:
    """Derive and register the cost models global optimization needs."""
    builder = CostModelBuilder(site.database)
    for query_class, count in ((G1, 120), (G3, 130)):
        queries = site.generator.queries_for(
            query_class, count, tables=["R1", "R2", "R3", "R4", "R5"]
        )
        outcome = builder.build(query_class, queries, algorithm="iupma")
        server.store_cost_model(site.name, outcome.model)
        print(
            f"  {site.name}: {query_class.label} model — "
            f"{outcome.model.num_states} states, R2={outcome.model.r_squared:.3f}"
        )


def main() -> None:
    oracle = make_site(
        "oracle_site", profile=ORACLE_LIKE, environment_kind="uniform",
        scale=0.02, seed=3,
    )
    db2 = make_site(
        "db2_site", profile=DB2_LIKE, environment_kind="uniform",
        scale=0.02, seed=4,
    )

    server = MDBSServer()
    for site in (oracle, db2):
        server.register_agent(MDBSAgent(site.database))

    print("deriving local cost models (multi-states query sampling) ...")
    for site in (oracle, db2):
        derive_models(server, site)

    query = GlobalJoinQuery(
        "oracle_site", "R3",
        "db2_site", "R4",
        "a4", "a4",
        ("R3.a1", "R3.a5", "R4.a2"),
        left_predicate=Comparison("a3", "<=", 400),
        right_predicate=Comparison("a7", ">", 20000),
    )
    print(f"\nglobal query: {query}\n")

    for plan in server.optimizer.plans(query):
        print(plan.describe())
        print()

    chosen, _ = server.optimize(query)
    print(f"optimizer chose: join at the {chosen.join_site} site\n")

    execution = server.execute(query, chosen)
    print(f"executed: {execution.cardinality} result rows")
    for step in execution.steps:
        print(f"  {step.description}: {step.seconds:.3f}s observed")
    print(
        f"total observed {execution.observed_seconds:.2f}s vs "
        f"estimated {execution.estimated_seconds:.2f}s"
    )


if __name__ == "__main__":
    main()
