"""Unit tests for repro.engine.schema."""

import pytest

from repro.engine.errors import SchemaError
from repro.engine.schema import (
    Column,
    ColumnStatistics,
    TableSchema,
    TableStatistics,
)
from repro.engine.types import DataType


class TestColumn:
    def test_default_width_from_type(self):
        assert Column("a", DataType.INT).width == DataType.INT.default_width

    def test_explicit_width(self):
        assert Column("a", DataType.STR, 64).width == 64

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("1bad", DataType.INT)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.INT)

    def test_negative_width_rejected(self):
        with pytest.raises(SchemaError):
            Column("a", DataType.INT, -4)

    def test_validate_delegates_to_type(self):
        assert Column("a", DataType.FLOAT).validate(2) == 2.0


class TestTableSchema:
    @pytest.fixture
    def schema(self):
        return TableSchema(
            "t",
            [
                Column("a", DataType.INT),
                Column("b", DataType.FLOAT),
                Column("c", DataType.STR, 20),
            ],
        )

    def test_len_and_contains(self, schema):
        assert len(schema) == 3
        assert "a" in schema
        assert "z" not in schema

    def test_column_lookup(self, schema):
        assert schema.column("b").dtype is DataType.FLOAT

    def test_column_lookup_missing(self, schema):
        with pytest.raises(SchemaError):
            schema.column("nope")

    def test_position(self, schema):
        assert schema.position("a") == 0
        assert schema.position("c") == 2

    def test_position_missing(self, schema):
        with pytest.raises(SchemaError):
            schema.position("nope")

    def test_column_names_ordered(self, schema):
        assert schema.column_names == ("a", "b", "c")

    def test_tuple_length_sums_widths(self, schema):
        assert schema.tuple_length == 8 + 8 + 20

    def test_projected_tuple_length(self, schema):
        assert schema.projected_tuple_length(["a", "c"]) == 28

    def test_validate_row_roundtrip(self, schema):
        assert schema.validate_row([1, 2.5, "x"]) == (1, 2.5, "x")

    def test_validate_row_wrong_arity(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_row([1, 2.5])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INT), Column("a", DataType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_bad_table_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("bad name", [Column("a", DataType.INT)])


class TestColumnStatistics:
    def test_from_values(self):
        stats = ColumnStatistics.from_values([3, 1, 4, 1, 5])
        assert stats.minimum == 1
        assert stats.maximum == 5
        assert stats.distinct_count == 4

    def test_from_empty(self):
        stats = ColumnStatistics.from_values([])
        assert stats.minimum is None
        assert stats.maximum is None
        assert stats.distinct_count == 0

    def test_table_statistics_default_column(self):
        stats = TableStatistics(cardinality=10)
        assert stats.column("missing").minimum is None
