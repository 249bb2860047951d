"""The plain-Python reference against the engine on a small database."""

from __future__ import annotations

from repro.core.classification import G1, G2, G3, G4, G5, GC
from repro.workload.scenarios import make_site

from bench import oracle


def test_sql_text_round_trips_and_the_reference_agrees_with_the_engine():
    site = make_site("t", scale=0.008, seed=3)
    database = site.database
    for query_class in (G1, G2, GC, G3, G4, G5):
        tables = ("R1", "R2", "R3", "R4", "R5", "R6") if query_class.family == "join" else None
        for query in site.generator.queries_for(query_class, 3, tables=tables):
            sql = oracle.sql_text(query)
            assert database.parse(sql) == query
            rows = database.execute(sql).result.rows
            catalog = database.catalog
            if query_class.family == "unary":
                expected = oracle.reference_select(catalog.table(query.table), query)
            else:
                expected = oracle.reference_join(
                    catalog.table(query.left), catalog.table(query.right),
                    query.left_column, query.right_column, query.columns,
                    query.left_predicate, query.right_predicate,
                )
            assert oracle.digest(rows) == expected


def test_digest_ignores_row_order_and_sees_a_changed_value():
    assert oracle.digest([(1, 2), (3, 4)]) == oracle.digest([(3, 4), (1, 2)])
    assert oracle.digest([(1, 2), (3, 4)]) != oracle.digest([(1, 2), (3, 5)])
    assert oracle.digest([])[0] == 0
