"""Unit tests for synthetic table generation."""

import numpy as np
import pytest

from repro.engine.database import LocalDatabase
from repro.engine.index import IndexKind
from repro.workload.tablegen import (
    COLUMN_NAMES,
    PAPER_CARDINALITIES,
    TableSpec,
    generate_columns,
    paper_workload,
    populate_database,
)


class TestSpecs:
    def test_paper_workload_has_12_tables(self):
        spec = paper_workload(scale=1.0)
        assert len(spec.tables) == 12
        assert [t.name for t in spec.tables] == [f"R{i}" for i in range(1, 13)]

    def test_paper_cardinalities_match_paper_range(self):
        assert PAPER_CARDINALITIES[0] == 3_000
        assert PAPER_CARDINALITIES[-1] == 250_000

    def test_scale_shrinks_proportionally(self):
        spec = paper_workload(scale=0.01)
        assert spec.tables[-1].cardinality == 2_500
        assert all(t.cardinality >= 200 for t in spec.tables)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            paper_workload(scale=0.0)

    def test_every_third_table_clustered(self):
        spec = paper_workload(scale=0.01)
        clustered = [t.name for t in spec.tables if t.clustered_index_on]
        assert clustered == ["R3", "R6", "R9", "R12"]

    def test_resolved_ranges_a1_tracks_cardinality(self):
        spec = TableSpec("T", 50_000)
        assert spec.resolved_ranges()["a1"] == 50_000
        tiny = TableSpec("T", 100)
        assert tiny.resolved_ranges()["a1"] == 1_000

    def test_range_override(self):
        spec = TableSpec("T", 100, ranges={"a4": 7})
        assert spec.resolved_ranges()["a4"] == 7


def generated_rows(spec: TableSpec, rng: np.random.Generator) -> list[tuple]:
    """The generated columns of *spec* as row tuples."""
    return list(zip(*(array.tolist() for array in generate_columns(spec, rng))))


class TestRowGeneration:
    def test_rows_respect_ranges(self):
        spec = TableSpec("T", 500)
        rng = np.random.default_rng(1)
        columns = generate_columns(spec, rng)
        assert [array.dtype for array in columns] == [np.dtype(np.int64)] * 9
        rows = generated_rows(spec, np.random.default_rng(1))
        ranges = spec.resolved_ranges()
        assert len(rows) == 500
        for row in rows:
            for value, col in zip(row, COLUMN_NAMES):
                assert 0 <= value < ranges[col]

    def test_deterministic_given_seed(self):
        spec = TableSpec("T", 100)
        a = generated_rows(spec, np.random.default_rng(5))
        b = generated_rows(spec, np.random.default_rng(5))
        assert a == b


class TestPopulation:
    def test_populate_creates_tables_and_indexes(self, tiny_workload):
        db = populate_database(LocalDatabase("db"), tiny_workload)
        assert db.catalog.table_names == ["R1", "R2", "R3"]
        # Non-clustered a1 index everywhere.
        for name in db.catalog.table_names:
            index = db.catalog.index_on(name, "a1")
            assert index is not None
        # R3 additionally clustered on a2.
        clustered = db.catalog.index_on("R3", "a2")
        assert clustered is not None and clustered.kind is IndexKind.CLUSTERED
        assert db.catalog.table("R3").clustered_on == "a2"

    def test_statistics_analyzed(self, tiny_workload):
        db = populate_database(LocalDatabase("db"), tiny_workload)
        stats = db.catalog.table("R1").statistics
        assert stats.column("a1").distinct_count > 0

    def test_same_seed_same_content(self, tiny_workload):
        a = populate_database(LocalDatabase("a"), tiny_workload)
        b = populate_database(LocalDatabase("b"), tiny_workload)
        assert a.catalog.table("R1").rows() == b.catalog.table("R1").rows()

    def test_populate_returns_database(self, tiny_workload):
        db = LocalDatabase("x")
        assert populate_database(db, tiny_workload) is db
