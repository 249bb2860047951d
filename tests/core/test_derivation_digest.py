"""Derivation is pinned twice: what it produces, and how much work it does.

**Digest.**  A sha256 over every derived model's ``to_dict()``, its
selection steps and its state-determination history, for all six query
classes under IUPMA and ICMA, on one pool-less site and one with a
buffer pool.  The digests were first taken on the commit *before* the
derivation fast path (solve-only regression kernel, one dendrogram per
ICMA run, hoisted per-query invariants), so they prove that path changed
no coefficient, no statistic, no selection decision and no simulated
cost — floats enter the digest through ``repr``, which round-trips them
exactly.  They were re-pinned twice, each time after checking that the
earlier commit's digest equals the new one with one key popped from
``to_dict()`` on both sides: ``coef_covariance`` when the payload dropped
the coefficient covariance, and ``f_pvalue`` when the p-values moved from
``scipy.special`` to ``repro.mlr.ols.incomplete_beta`` (each of the 24
models' p-value moved by at most 5e-15 relative, and every one is still
significant at 0.01).

**Work budget.**  Deterministic call counts via monkeypatch: one build
inverts X'X never and evaluates the F-test p-value exactly once (for the
model it ships), one ICMA determination builds one dendrogram, and
planning never re-sorts a table's index list while the index set is
unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.builder import CostModelBuilder
from repro.core.classification import G1, G2, G3, G4, G5, GC
from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
from repro.workload.scenarios import make_site

CLASSES = (G1, G2, GC, G3, G4, G5)
ALGORITHMS = ("iupma", "icma")
JOIN_TABLES = tuple(f"R{i}" for i in range(1, 7))
TRAIN_QUERIES = 110

SITES = {
    "plain": dict(
        profile=ORACLE_LIKE, environment_kind="uniform", seed=141, buffer_pages=None
    ),
    "pooled": dict(
        profile=DB2_LIKE, environment_kind="clustered", seed=142, buffer_pages=48
    ),
}

#: sha256 per (site, algorithm).  With ``f_pvalue`` popped from every
#: ``to_dict()`` they read 9abb1572…, d72de537… (plain) and 0fa2e852…,
#: a2489208… (pooled) both here and with the ``scipy.special`` p-values.
PINNED = {
    ("plain", "iupma"): "0dab4b48368e657bf4ce970acabda2dc60d705e9f31db50da2cd70855eb2a1f1",
    ("plain", "icma"): "cdad22d3e14b15b7b39534b1cf889b5751b5d6e9f0e8cecde6fd2d37e750e14a",
    ("pooled", "iupma"): "5f7ee860f7e9ba85c469e9ee30935ee3e5c0cfaaeaf73f70230942fa80330939",
    ("pooled", "icma"): "b15b53a087fc7d7f1b2273cdf9e8a4930ef62d299a9ca0431ccd668775514968",
}


#: The pins hold wherever LAPACK rounds ``lstsq`` as it did where they
#: were taken; this is that platform's answer on one fixed system.
LSTSQ_CANARY = "32cd682c88d2dcec78e5b50096d84998b11e7986deeaf399734023a5a16c1354"


def _lstsq_canary() -> str:
    rng = np.random.default_rng(0)
    scales = rng.uniform(1, 1e4, size=23)
    X = np.column_stack([np.ones(170), rng.normal(size=(170, 23)) * scales])
    beta = np.linalg.lstsq(X, rng.normal(size=170), rcond=None)[0]
    return hashlib.sha256(beta.tobytes()).hexdigest()


def _site(kind: str):
    return make_site(f"digest_{kind}", scale=0.02, **SITES[kind])


def _queries(site, query_class):
    tables = JOIN_TABLES if query_class.family == "join" else None
    return site.generator.queries_for(query_class, TRAIN_QUERIES, tables=tables)


def derivation_digests(kind: str) -> dict[str, str]:
    """sha256 per algorithm over every class's derivation on one site."""
    site = _site(kind)
    builder = CostModelBuilder(site.database)
    hashes = {algorithm: hashlib.sha256() for algorithm in ALGORITHMS}
    for query_class in CLASSES:
        queries = _queries(site, query_class)
        for algorithm in ALGORITHMS:
            outcome = builder.build(query_class, queries, algorithm=algorithm)
            for part in (
                json.dumps(outcome.model.to_dict(), sort_keys=True),
                repr(outcome.selection.steps),
                repr(outcome.determination.phase1),
                repr(outcome.determination.merges),
            ):
                hashes[algorithm].update(part.encode())
    return {algorithm: h.hexdigest() for algorithm, h in hashes.items()}


@pytest.mark.parametrize("kind", sorted(SITES))
def test_derivations_are_bit_identical_to_the_parent_commit(kind):
    if _lstsq_canary() != LSTSQ_CANARY:
        pytest.skip("this platform's LAPACK rounds lstsq differently from the pins'")
    digests = derivation_digests(kind)
    assert {(kind, a): d for a, d in digests.items()} == {
        key: pin for key, pin in PINNED.items() if key[0] == kind
    }


class TestWorkBudget:
    def test_one_build_evaluates_inference_once(self, monkeypatch):
        from repro.mlr import ols

        inverted, f_tests = [], []
        incomplete_beta = ols.incomplete_beta

        def counting_incomplete_beta(a, b, x, y):
            f_tests.append(incomplete_beta(a, b, x, y))
            return f_tests[-1]

        monkeypatch.setattr(ols, "incomplete_beta", counting_incomplete_beta)
        monkeypatch.setattr(ols, "xtx_inverse", lambda X: inverted.append(X))
        site = _site("plain")
        builder = CostModelBuilder(site.database)
        for algorithm in ALGORITHMS:
            del f_tests[:]
            outcome = builder.build(G2, _queries(site, G2), algorithm=algorithm)
            # Thousands of regressions were solved; only the shipped one
            # had its F-test p-value computed (by from_fit), and no fit's
            # t-tests were.
            shipped = outcome.selection.fit.ols
            assert f_tests == [vars(shipped)["f_pvalue"]]
            assert vars(shipped)["f_pvalue"] == outcome.model.f_pvalue
        assert inverted == []

    def test_one_icma_determination_builds_one_dendrogram(self, monkeypatch):
        from repro.core import icma

        built = []

        class CountingDendrogram(icma.Dendrogram):
            def __init__(self, values):
                built.append(len(values))
                super().__init__(values)

        monkeypatch.setattr(icma, "Dendrogram", CountingDendrogram)
        site = _site("pooled")
        builder = CostModelBuilder(site.database)
        outcome = builder.build(G1, _queries(site, G1), algorithm="icma")
        assert built == [TRAIN_QUERIES]
        # ... although several cluster counts were tried.
        assert len(outcome.determination.phase1) > 1

    def test_constant_probing_sample_builds_no_dendrogram(self, monkeypatch):
        from repro.core import icma

        monkeypatch.setattr(icma, "Dendrogram", None)  # calling it would raise
        partitioner = icma.clustered_partitioner(np.full(40, 2.5), floor=5)
        assert partitioner(1).num_states == 1
        assert partitioner(2) is None

    def test_planning_never_resorts_an_unchanged_index_list(self, monkeypatch):
        from repro.engine import catalog as catalog_module

        site = _site("plain")
        sorts = []
        insort = catalog_module.insort
        monkeypatch.setattr(
            catalog_module,
            "insort",
            lambda *args, **kwargs: sorts.append("insort") or insort(*args, **kwargs),
        )
        monkeypatch.setattr(
            catalog_module,
            "sorted",
            lambda *args, **kwargs: sorts.append("sorted") or sorted(*args, **kwargs),
            raising=False,
        )
        database = site.database
        queries = _queries(site, G2) + _queries(site, G3)
        for query in queries:
            database.plan(query)
        database.execute(queries[0])
        assert sorts == []  # the lists were ordered when the indexes were made

        table = next(iter(database.catalog.tables()))
        column = next(
            name
            for name in table.schema.column_names
            if database.catalog.index_on(table.name, name) is None
        )
        database.create_index("budget_idx", table.name, column)
        assert sorts == ["insort"]  # the index set changed: one ordered insert
        for query in queries:
            database.plan(query)
        assert sorts == ["insort"]
        assert database.catalog.index_on(table.name, column).name == "budget_idx"
