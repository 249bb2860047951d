"""Results build their tuples on first read, over column arrays nobody
may write to — and two inputs on which numpy, used naively, returns
wrong rows."""

import numpy as np
import pytest

from repro.engine.access import seq_scan
from repro.engine.database import LocalDatabase
from repro.engine.joins import hash_join
from repro.engine.predicate import Comparison
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column
from repro.engine.types import DataType

INT, FLOAT, STR = DataType.INT, DataType.FLOAT, DataType.STR

def database(**tables) -> LocalDatabase:
    db = LocalDatabase("unit", noise_sigma=0.0)
    for name, (columns, rows) in tables.items():
        db.create_table(name, columns, rows)
    return db


class TestTrailingNul:
    """numpy's fixed-width unicode drops trailing NULs: ``'a\\x00'`` would
    compare, join and print as ``'a'`` — in a column, and as a constant."""

    def make(self):
        return database(
            t=([Column("s", STR, 8), Column("k", INT)], [("a\x00", 1), ("a", 2), ("b", 3)]),
            u=([Column("s", STR, 8), Column("v", INT)], [("a", 10)]),
            ks=([Column("k", INT)], [(1,), (2,), (3,)]),
        )

    def test_select_keeps_the_strings_apart(self):
        db = self.make()
        query = SelectQuery("t", ("s", "k"), Comparison("s", "=", "a"))
        assert db.execute(query).result.rows == [("a", 2)]
        nul = SelectQuery("t", ("s", "k"), Comparison("s", "=", "a\x00"))
        assert db.execute(nul).result.rows == [("a\x00", 1)]

    def test_join_keeps_the_strings_apart(self):
        db = self.make()
        result = db.execute(JoinQuery("t", "u", "s", "s")).result
        assert result.rows == [("a", 2, "a", 10)]
        # ... and a projected value keeps its NUL.
        everything = db.execute(JoinQuery("t", "ks", "k", "k", ("t.s",))).result
        assert everything.rows == [("a\x00",), ("a",), ("b",)]


class TestMixedKeysBeyondFloatPrecision:
    """``searchsorted`` would compare int64 keys to float64 keys as
    floats, where 2**53 + 1 and 2.0**53 are the same number."""

    def test_int_keys_do_not_match_their_rounded_floats(self):
        db = database(
            t=([Column("k", INT)], [(2**53 + 1,), (5,)]),
            u=([Column("f", FLOAT)], [(2.0**53,), (5.0,)]),
        )
        assert db.execute(JoinQuery("t", "u", "k", "f")).result.rows == [(5, 5.0)]
        assert db.execute(JoinQuery("u", "t", "f", "k")).result.rows == [(5.0, 5)]

    def test_small_mixed_keys_match_with_their_types_kept(self):
        db = database(
            t=([Column("k", INT)], [(3,), (0,)]),
            u=([Column("f", FLOAT)], [(-0.0,), (3.0,), (3.5,)]),
        )
        rows = db.execute(JoinQuery("t", "u", "k", "f")).result.rows
        assert [tuple(map(repr, row)) for row in rows] == [("3", "3.0"), ("0", "-0.0")]


class TestResultsAreLazy:
    def make(self):
        return database(
            t=([Column("a", INT), Column("b", FLOAT)], [(i, i / 2) for i in range(10)])
        )

    def test_sizes_need_no_row(self, rows_built):
        result = self.make().execute(SelectQuery("t", ("a",), Comparison("a", "<", 4))).result
        assert result.cardinality == len(result) == 4
        assert result.tuple_length == 8
        assert result.table_length == 32
        assert result[0] == (0,) and result[-1] == (3,)
        assert rows_built == []

    def test_rows_are_built_once_as_python_values(self, rows_built):
        result = self.make().execute(SelectQuery("t", (), Comparison("a", ">=", 8))).result
        rows = result.rows
        assert rows == [(8, 4.0), (9, 4.5)]
        assert [type(v) for v in rows[0]] == [int, float]
        assert result.rows is rows and list(result) == rows
        assert rows_built == [result]

    def test_an_empty_result_has_no_rows(self):
        result = self.make().execute(SelectQuery("t", (), Comparison("a", "<", 0))).result
        assert result.cardinality == 0
        assert result.rows == []
        with pytest.raises(IndexError):
            result[0]


class TestColumnArraysAreImmutable:
    def make_table(self):
        return database(
            t=([Column("a", INT), Column("b", INT)], [(3, 30), (1, 10), (2, 20)]),
            u=([Column("a", INT)], [(1,), (2,), (3,)]),
        )

    def test_writing_through_a_result_raises(self):
        db = self.make_table()
        table = db.catalog.table("t")
        result = seq_scan(table, SelectQuery("t")).result
        for array, _ in result._gathers:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            table.column_array("a")[0] = 99
        # A table loaded by column holds its arrays the same way.
        shipped = db.create_table("shipped", table.schema.columns, result)
        with pytest.raises(ValueError, match="read-only"):
            shipped.column_array("a")[0] = 99

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda db: db.catalog.drop_table("t"),
            lambda db: db.insert("t", (9, 90)),
            lambda db: db.catalog.table("t").cluster_on("a"),
            lambda db: db.catalog.table("t").bulk_load([(7, 70), (8, 80)]),
        ],
        ids=["drop_table", "insert", "cluster_on", "bulk_load"],
    )
    def test_a_result_taken_before_a_mutation_keeps_its_rows(self, mutate):
        db = self.make_table()
        select = db.execute(SelectQuery("t")).result
        join = hash_join(
            db.catalog.table("t"), db.catalog.table("u"), JoinQuery("t", "u", "a", "a", ("t.b",))
        ).result
        mutate(db)
        assert select.rows == [(3, 30), (1, 10), (2, 20)]
        assert join.rows == [(30,), (10,), (20,)]

    def test_a_column_born_table_survives_its_own_mutations(self):
        db = self.make_table()
        shipped = db.create_table(
            "shipped", db.catalog.table("t").schema.columns, db.execute(SelectQuery("t")).result
        )
        before = db.execute(SelectQuery("shipped")).result
        shipped.insert((0, 0))
        shipped.cluster_on("a")
        assert before.rows == [(3, 30), (1, 10), (2, 20)]
        assert shipped.rows() == [(0, 0), (1, 10), (2, 20), (3, 30)]
        assert shipped.column_array("a").tolist() == [0, 1, 2, 3]


class TestForksShareColumnArrays:
    def test_forks_share_arrays_until_they_mutate(self):
        template = database(
            t=([Column("a", INT), Column("b", INT)], [(1, 10), (2, 20)])
        ).catalog.table("t")
        first, second = template.fork(), template.fork()
        # The arrays are shared until a side mutates.
        array = first.column_array("a")
        assert second.column_array("a") is array
        assert template.column_array("a") is array

        first.insert((3, 30))
        assert first.column_array("a").tolist() == [1, 2, 3]
        assert first.column_array("a") is not array
        for untouched in (template, second):
            assert untouched.column_array("a") is array
            assert untouched.column_array("a").tolist() == [1, 2]
            assert untouched.rows() == [(1, 10), (2, 20)]
            assert untouched.cardinality == 2
        assert np.shares_memory(second.column_array("b"), template.column_array("b"))
