"""Shared fixtures for the test suite.

Expensive artifacts (populated sites, collected observation sets, fitted
models) are session-scoped: many tests read them, none mutate them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.core import CostModelBuilder, G1
from repro.engine import Column, DataType, LocalDatabase, ResultTable, Table, TableSchema
from repro.env import dynamic_uniform_environment
from repro.workload import TableSpec, WorkloadSpec, make_site, tablegen


@pytest.fixture
def template_store(monkeypatch):
    """An empty site-template store for one test; the session's own
    (and its warm templates) comes back afterwards."""
    store = OrderedDict()
    monkeypatch.setattr(tablegen, "_templates", store)
    return store


@pytest.fixture
def rows_built(monkeypatch):
    """The results whose row tuples get built while the test runs.

    A result builds its tuples on the first read of ``rows``; this
    records each such first read, so a test can pin down which traffic
    pays for tuples and which never does.
    """
    built = []
    build = ResultTable.rows.fget

    def recording(result):
        if result._rows is None:
            built.append(result)
        return build(result)

    monkeypatch.setattr(ResultTable, "rows", property(recording))
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_test_table(
    name: str = "t", rows: int = 500, seed: int = 0, extra_str: bool = False
) -> Table:
    """A small table with three int columns (and optionally a string)."""
    columns = [
        Column("a", DataType.INT),
        Column("b", DataType.INT),
        Column("c", DataType.INT),
    ]
    if extra_str:
        columns.append(Column("s", DataType.STR, 16))
    schema = TableSchema(name, columns)
    table = Table(schema)
    gen = np.random.default_rng(seed)
    for _ in range(rows):
        row = [
            int(gen.integers(0, 1000)),
            int(gen.integers(0, 100)),
            int(gen.integers(0, 10)),
        ]
        if extra_str:
            row.append("x" * int(gen.integers(1, 8)))
        table.insert(row)
    table.analyze()
    return table


@pytest.fixture
def small_table() -> Table:
    return make_test_table()


@pytest.fixture
def small_database() -> LocalDatabase:
    """A two-table database with indexes, in a static environment."""
    db = LocalDatabase("unit_db", noise_sigma=0.0, seed=1)
    gen = np.random.default_rng(3)
    columns = [
        Column("a", DataType.INT),
        Column("b", DataType.INT),
        Column("c", DataType.INT),
    ]
    db.create_table(
        "t1",
        columns,
        [
            (int(gen.integers(0, 1000)), int(gen.integers(0, 100)), int(gen.integers(0, 10)))
            for _ in range(600)
        ],
    )
    db.create_table(
        "t2",
        columns,
        [
            (int(gen.integers(0, 1000)), int(gen.integers(0, 100)), int(gen.integers(0, 10)))
            for _ in range(400)
        ],
    )
    db.create_index("t1_a", "t1", "a")
    db.create_index("t2_b_c", "t2", "b", clustered=True)
    db.analyze()
    return db


@pytest.fixture
def dynamic_database() -> LocalDatabase:
    """A small database under uniformly dynamic contention."""
    db = LocalDatabase(
        "dyn_db", environment=dynamic_uniform_environment(seed=5), seed=5
    )
    gen = np.random.default_rng(7)
    db.create_table(
        "t1",
        [Column("a", DataType.INT), Column("b", DataType.INT)],
        [(int(gen.integers(0, 1000)), int(gen.integers(0, 100))) for _ in range(400)],
    )
    db.analyze()
    return db


@pytest.fixture(scope="session")
def session_site():
    """A populated dynamic site shared by read-only pipeline tests."""
    return make_site("session_site", environment_kind="uniform", scale=0.01, seed=99)


@pytest.fixture(scope="session")
def session_g1_build(session_site):
    """A derived G1 model + observations, shared across tests."""
    builder = CostModelBuilder(session_site.database)
    queries = session_site.generator.queries_for(G1, 120)
    outcome = builder.build(G1, queries, algorithm="iupma")
    return builder, outcome


@pytest.fixture
def tiny_workload():
    return WorkloadSpec(
        tables=(
            TableSpec("R1", 400),
            TableSpec("R2", 800),
            TableSpec("R3", 1200, clustered_index_on="a2"),
        ),
        seed=2,
    )
