"""The shared seeded two-site universe helper.

The drift-detection experiment, the serving-throughput bench, and the
loadgen shards all used to hand-roll the same two ``make_site`` calls;
:func:`~repro.workload.scenarios.make_two_site_universe` centralizes
that.  The determinism test proves the helper reproduces the inline
construction byte for byte — populated tables, query streams, and
contention traces — so the dedupe could not have shifted any experiment
output.
"""

from repro.core.classification import G1, G3
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.env.contention import level_to_processes
from repro.workload.scenarios import make_site, make_two_site_universe

SCALE = 0.01
SEEDS = (107, 108)
CALM = (0.0, 0.45)


def inline_universe():
    """The pre-dedupe construction, replicated verbatim."""
    left = make_site(
        "u_left", profile=ORACLE_LIKE, environment_kind="uniform",
        scale=SCALE, seed=SEEDS[0],
    )
    right = make_site(
        "u_right", profile=DB2_LIKE, environment_kind="uniform",
        scale=SCALE, seed=SEEDS[1],
    )
    left.load_builder.uniform(*CALM)
    right.load_builder.uniform(*CALM)
    return left, right


def helper_universe():
    return make_two_site_universe(
        names=("u_left", "u_right"),
        profiles=(ORACLE_LIKE, DB2_LIKE),
        seeds=SEEDS,
        scale=SCALE,
        calm_range=CALM,
    )


def site_fingerprint(site, steps=12, gap=600.0):
    """Everything downstream consumes: schema, data sizes, queries, load."""
    tables = {
        t.name: (t.cardinality, t.tuple_length, t.clustered_on)
        for t in site.database.catalog.tables()
    }
    queries = [repr(q) for q in site.generator.queries_for(G1, 8)]
    queries += [repr(q) for q in site.generator.queries_for(G3, 4)]
    trace = []
    for _ in range(steps):
        site.environment.advance(gap)
        trace.append(
            (site.environment.level(), level_to_processes(site.environment.level()))
        )
    return {
        "name": site.name,
        "profile": site.database.profile.name,
        "tables": tables,
        "queries": queries,
        "trace": trace,
    }


class TestUniverseDeterminism:
    def test_helper_matches_inline_construction(self):
        for inline, helped in zip(inline_universe(), helper_universe()):
            assert site_fingerprint(inline) == site_fingerprint(helped)

    def test_same_arguments_same_universe(self):
        first = [site_fingerprint(s) for s in helper_universe()]
        second = [site_fingerprint(s) for s in helper_universe()]
        assert first == second

    def test_seeds_differentiate_sites(self):
        left, right = helper_universe()
        assert site_fingerprint(left) != site_fingerprint(right)

    def test_calm_range_is_optional(self):
        left, _ = make_two_site_universe(
            names=("c_left", "c_right"),
            profiles=(ORACLE_LIKE, ORACLE_LIKE),
            seeds=(1, 2),
            scale=SCALE,
        )
        # Without a calm range the stock uniform environment applies:
        # levels range over [0, 1), not the pinned calm band.
        levels = []
        for _ in range(40):
            left.environment.advance(600.0)
            levels.append(left.environment.level())
        assert max(levels) > CALM[1]
