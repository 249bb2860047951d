"""Quickstart: derive a multi-states cost model and estimate query costs.

Builds one simulated local database system under uniformly dynamic load,
derives a cost model for the sequential-scan query class (G1) with the
multi-states query sampling method, and compares its estimates against
observed costs for a few fresh queries.

Run:  python examples/quickstart.py
"""

from repro.core import CostModelBuilder, G1, classify, validate_model
from repro.workload import make_site


def main() -> None:
    # A local site: Oracle-like engine, tables R1..R12 (scaled down),
    # contention level drawn uniformly at random over time.
    site = make_site(
        "oracle_site", environment_kind="uniform", scale=0.02, seed=11
    )
    print(f"site: {site.name}, tables: {site.database.catalog.table_names}")
    print(f"current contention level: {site.environment.level():.2f} "
          f"(slowdown {site.environment.slowdown():.1f}x)\n")

    # Derive the G1 cost model: sample queries, probe the contention,
    # determine states (IUPMA), select variables, fit.
    builder = CostModelBuilder(site.database)
    sample_queries = site.generator.queries_for(G1, 150)
    outcome = builder.build(G1, sample_queries, algorithm="iupma")
    model = outcome.model

    print("derived cost model:")
    print(model.equation_table())
    print(f"\ntraining fit: R2={model.r_squared:.3f}, "
          f"SEE={model.standard_error:.3g}, F significant: {model.is_significant()}\n")

    # Use the model the way the global optimizer would: estimate fresh
    # queries' costs from catalog-derivable variables plus a probing cost.
    test_queries = site.generator.queries_for(G1, 40)
    test_obs = builder.collect(test_queries)
    report = validate_model(model, test_obs)
    print(f"on {report.n_queries} fresh test queries:")
    print(f"  very good estimates (rel err <= 30%): {report.pct_very_good:.0f}%")
    print(f"  good estimates (within 2x):           {report.pct_good:.0f}%")

    sql = "select a1, a5, a7 from R4 where a3 > 300 and a8 < 2000"
    query = site.database.parse(sql)
    print(f"\nexample query: {sql}")
    print(f"  class: {classify(site.database, query).label}")
    probing_cost = builder.probe.observe()
    result = site.database.execute(query)
    from repro.core import extract_variables

    estimate = model.predict(extract_variables(result), probing_cost)
    error = abs(estimate - result.elapsed) / result.elapsed
    print(f"  observed {result.elapsed:.2f}s vs estimated {estimate:.2f}s "
          f"(state s{model.state_for(probing_cost)}, "
          f"relative error {error:.0%})")

    # For the full story of how the model was derived (state search,
    # merges, variable selection), render the derivation report:
    from repro.core import derivation_report

    report_text = derivation_report(outcome)
    print("\n--- derivation report (first 15 lines) ---")
    print("\n".join(report_text.splitlines()[:15]))

    # The report ends with per-phase build timings (real seconds spent
    # sampling / partitioning / selecting / fitting):
    lines = report_text.splitlines()
    start = lines.index("Derivation cost") - 1
    print("\n".join(lines[start:]))


if __name__ == "__main__":
    main()
