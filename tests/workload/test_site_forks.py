"""Site templates and forks: isolation, identity, and the bounded store.

``populate_database`` installs a fork of a per-process template.  The
suite pins what makes that safe: whatever happens to one fork is
invisible to the template and to sibling forks, a mutated fork behaves
like a database built from scratch and mutated the same way, shared
B+-trees cannot be edited, and the store stays bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, DataType, LocalDatabase
from repro.engine.errors import EngineError
from repro.engine.pages import PageLayout
from repro.mdbs.agent import MDBSAgent
from repro.workload import tablegen
from repro.workload.tablegen import (
    COLUMN_NAMES,
    TableSpec,
    WorkloadSpec,
    generate_columns,
    populate_database,
)

SPEC = WorkloadSpec(
    tables=(
        TableSpec("R1", 90),
        TableSpec("R2", 140, clustered_index_on="a2"),
        TableSpec("R3", 60, nonclustered_index_on=None),
    ),
    seed=5,
)
TABLES = [spec.name for spec in SPEC.tables]
COLUMNS = [Column(name, DataType.INT) for name in COLUMN_NAMES]
#: What a built index holds: read-only arrays, shared by every fork.
INDEX_ARRAYS = ("_keys", "_starts", "_row_ids", "_leaf_starts", "_leaf_paths")

QUERIES = (
    "select a1, a3 from R1 where a1 < 600",
    "select a2 from R2 where a2 > 2000 and a2 < 7000",
    "select a5 from R3 where a9 = 3",
    "select R1.a1, R2.a2 from R1 join R2 on R1.a4 = R2.a4 where R1.a3 < 700",
    "select R2.a1, R3.a1 from R2 join R3 on R2.a9 = R3.a9 where R3.a6 < 100",
)


def database(name="db") -> LocalDatabase:
    return LocalDatabase(name, noise_sigma=0.0, seed=1)


def built_from_scratch(spec: WorkloadSpec) -> LocalDatabase:
    """What ``populate_database`` promises, through plain DDL only."""
    db = database("scratch")
    rng = np.random.default_rng(spec.seed)
    for table in spec.tables:
        columns = generate_columns(table, rng)
        db.create_table(table.name, COLUMNS, zip(*(array.tolist() for array in columns)))
        if table.clustered_index_on:
            db.create_index(
                f"{table.name}_c_{table.clustered_index_on}",
                table.name,
                table.clustered_index_on,
                clustered=True,
            )
        if table.nonclustered_index_on:
            db.create_index(
                f"{table.name}_nc_{table.nonclustered_index_on}",
                table.name,
                table.nonclustered_index_on,
            )
    db.analyze()
    return db


def digest(catalog) -> list:
    """Everything a fork must not see change: rows, physical order,
    clustering, statistics, and every index's shape and page identities."""
    out = []
    for table in catalog.tables():
        stats = table.statistics
        indexes = []
        for index in catalog.indexes_for(table.name):
            assert index.table is table
            keys = sorted(set(table.column_values(index.column_name)))
            indexes.append(
                (
                    index.name,
                    index.kind,
                    index.column_name,
                    index.height,
                    index.clustering_ratio(),
                    [index.traversal_path(k) for k in [None, *keys[::7]]],
                    index.range_lookup().tolist(),
                )
            )
        out.append(
            (
                table.name,
                list(table.rows()),
                table.clustered_on,
                stats.cardinality,
                {
                    name: (c.minimum, c.maximum, c.distinct_count)
                    for name, c in stats.columns.items()
                },
                indexes,
            )
        )
    return out


def answers(db: LocalDatabase) -> list:
    """Rows, plan, work counters and simulated cost of the fixed queries."""
    out = []
    for sql in QUERIES:
        try:
            result = db.execute(sql)
        except EngineError as exc:  # e.g. the table was dropped
            out.append((type(exc), str(exc)))
        else:
            out.append((result.result.rows, result.plan, result.metrics, result.elapsed))
    return out


# -- mutation scripts -----------------------------------------------------------

rows_st = st.lists(
    st.tuples(*[st.integers(0, 9_999)] * len(COLUMN_NAMES)), min_size=1, max_size=12
)
table_st = st.sampled_from(TABLES)
column_st = st.sampled_from(COLUMN_NAMES)

operations = st.one_of(
    st.tuples(st.just("insert"), table_st, rows_st),
    st.tuples(st.just("bulk_load"), table_st, rows_st),
    st.tuples(st.just("cluster_on"), table_st, column_st),
    st.tuples(st.just("create_index"), table_st, column_st, st.booleans()),
    st.tuples(st.just("drop_index"), table_st, st.integers(0, 3)),
    st.tuples(st.just("recreate"), table_st, rows_st),
    st.tuples(st.just("temp_cycle"), table_st, rows_st),
)


def has_clustered_index(db, name) -> bool:
    return any(i.kind.value == "clustered" for i in db.catalog.indexes_for(name))


def apply(db: LocalDatabase, op: tuple) -> list:
    """Run one scripted mutation; returns what it observed (temp cycle)."""
    kind, name, *args = op
    if not db.catalog.has_table(name):
        return []
    table = db.catalog.table(name)
    if kind == "insert":
        for row in args[0]:
            db.insert(name, row)
    elif kind == "bulk_load":
        db.bulk_load(name, args[0])
    elif kind == "cluster_on":
        if not has_clustered_index(db, name):
            table.cluster_on(args[0])
            db.insert(name, (0,) * len(COLUMN_NAMES))
    elif kind == "create_index":
        column, clustered = args
        index_name = f"{name}_x_{column}_{int(clustered)}"
        if index_name not in {i.name for i in db.catalog.indexes_for(name)} and not (
            clustered and has_clustered_index(db, name)
        ):
            db.create_index(index_name, name, column, clustered=clustered)
    elif kind == "drop_index":
        indexes = db.catalog.indexes_for(name)
        if indexes:
            db.catalog.drop_index(indexes[args[0] % len(indexes)].name)
    elif kind == "recreate":
        db.catalog.drop_table(name)
        db.create_table(name, COLUMNS, args[0])
    elif kind == "temp_cycle":
        agent = MDBSAgent(db)
        agent.create_temp_table("tmp", ("k", "v"), (4, 4), [r[:2] for r in args[0]])
        joined = db.execute(
            f"select tmp.v, {name}.a1 from tmp join {name} on tmp.k = {name}.a9"
        )
        agent.drop_temp_table("tmp")
        return [joined.result.rows, joined.plan, joined.metrics]
    return []


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, max_size=8))
def test_mutating_one_fork_is_invisible_to_template_and_siblings(ops):
    template = tablegen._template_for(SPEC, PageLayout())
    sibling = populate_database(database("sibling"), SPEC)
    mutated = populate_database(database("mutated"), SPEC)
    reference = built_from_scratch(SPEC)
    before = digest(template)
    assert digest(sibling.catalog) == before == digest(reference.catalog)

    for op in ops:
        assert apply(mutated, op) == apply(reference, op)

    assert digest(template) == before
    assert digest(sibling.catalog) == before
    assert digest(mutated.catalog) == digest(reference.catalog)
    assert answers(mutated) == answers(reference)
    assert answers(sibling) == answers(built_from_scratch(SPEC))


# -- identity ---------------------------------------------------------------------


def test_fork_owns_tables_and_indexes_but_shares_columns_and_trees(template_store):
    first = populate_database(database("a"), SPEC)
    second = populate_database(database("b"), SPEC)
    (template,) = template_store.values()
    for catalog in (first.catalog, second.catalog):
        assert catalog is not template
        for table in catalog.tables():
            origin = template.table(table.name)
            assert table is not origin
            for name in COLUMN_NAMES:
                assert table.column_array(name) is origin.column_array(name)
            assert table.statistics is not origin.statistics
            for index in catalog.indexes_for(table.name):
                shared = template.index(index.name)
                assert index is not shared
                assert index.table is table
                for name in INDEX_ARRAYS:
                    assert getattr(index, name) is getattr(shared, name)
    # Rows are built from the shared arrays, per call, and kept by nobody.
    asked = first.catalog.table("R1")
    assert asked.rows() == list(zip(*(asked.column_values(c) for c in COLUMN_NAMES)))
    assert asked.rows() is not asked.rows()


def test_a_built_tree_cannot_be_edited():
    db = populate_database(database(), SPEC)
    for index in db.catalog.indexes_for("R2"):
        for name in INDEX_ARRAYS:
            array = getattr(index, name)
            assert array.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = array[:1]


def test_template_equals_the_plain_ddl_build(template_store):
    forked = populate_database(database(), SPEC)
    assert digest(forked.catalog) == digest(built_from_scratch(SPEC).catalog)
    assert answers(forked) == answers(built_from_scratch(SPEC))


# -- the store -------------------------------------------------------------------


def spec_with_seed(seed: int) -> WorkloadSpec:
    return WorkloadSpec(tables=(TableSpec("R1", 30),), seed=seed)


def test_store_is_bounded_and_evicts_least_recently_used(template_store, monkeypatch):
    monkeypatch.setattr(tablegen, "TEMPLATE_STORE_SIZE", 3)
    for seed in (0, 1, 2):
        populate_database(database(), spec_with_seed(seed))
    populate_database(database(), spec_with_seed(0))  # 1 is now the oldest
    evicted = digest(template_store[spec_with_seed(1), PageLayout()])
    populate_database(database(), spec_with_seed(3))
    assert [key[0].seed for key in template_store] == [2, 0, 3]

    again = populate_database(database(), spec_with_seed(1))
    assert [key[0].seed for key in template_store] == [0, 3, 1]
    assert digest(again.catalog) == evicted


def test_one_template_per_spec_however_many_databases(template_store):
    for i in range(5):
        populate_database(database(f"db{i}"), SPEC)
    assert list(template_store) == [(SPEC, PageLayout())]


def test_populating_a_database_that_already_holds_tables(template_store):
    db = database()
    db.create_table("mine", [Column("k", DataType.INT)], [(1,), (2,)])
    db.create_index("mine_k", "mine", "k")
    assert populate_database(db, SPEC) is db
    assert db.catalog.table_names == ["R1", "R2", "R3", "mine"]
    assert db.execute("select k from mine where k = 2").result.rows == [(2,)]
    assert db.execute(QUERIES[0]).result.rows == (
        built_from_scratch(SPEC).execute(QUERIES[0]).result.rows
    )
    with pytest.raises(EngineError, match="already exists"):
        populate_database(db, SPEC)


# -- the key ---------------------------------------------------------------------


def test_specs_hash_by_value():
    assert hash(tablegen.paper_workload()) == hash(tablegen.paper_workload())
    a = TableSpec("T", 100, ranges={"a4": 7, "a2": 9})
    b = TableSpec("T", 100, ranges={"a2": 9, "a4": 7})
    assert a == b and hash(a) == hash(b)
    assert a.resolved_ranges()["a4"] == 7
    assert hash(WorkloadSpec((a,), seed=3)) == hash(WorkloadSpec((b,), seed=3))


@pytest.mark.parametrize(
    "other, layout",
    [
        (WorkloadSpec((TableSpec("R1", 30, ranges={"a4": 7}),), seed=0), PageLayout()),
        (WorkloadSpec((TableSpec("R1", 30),), seed=1), PageLayout()),
        (WorkloadSpec((TableSpec("R1", 30, nonclustered_index_on="a3"),)), PageLayout()),
        (WorkloadSpec((TableSpec("R1", 30, clustered_index_on="a2"),)), PageLayout()),
        (spec_with_seed(0), PageLayout(page_size=4096)),
    ],
)
def test_differing_specs_never_share_a_template(template_store, other, layout):
    base = populate_database(database(), spec_with_seed(0))
    changed = populate_database(
        LocalDatabase("other", layout=layout, noise_sigma=0.0, seed=1), other
    )
    assert len(template_store) == 2
    base_table, changed_table = base.catalog.table("R1"), changed.catalog.table("R1")
    assert changed_table.layout == layout
    assert not any(
        base_table.column_array(name) is changed_table.column_array(name)
        for name in COLUMN_NAMES
    )
