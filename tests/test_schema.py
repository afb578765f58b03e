"""Unit tests for table schemas and column statistics."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.schema import (
    Column,
    ColumnStatistics,
    DataType,
    TableSchema,
    numeric_schema,
)


class TestColumn:
    def test_defaults_to_float(self):
        column = Column("price")
        assert column.dtype is DataType.FLOAT64
        assert not column.nullable

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_byte_widths(self):
        assert DataType.FLOAT64.byte_width == 8
        assert DataType.INT64.byte_width == 8
        assert DataType.STRING.byte_width == 16

    def test_numpy_dtypes(self):
        assert DataType.FLOAT64.numpy_dtype == np.dtype(np.float64)
        assert DataType.INT64.numpy_dtype == np.dtype(np.int64)
        assert DataType.STRING.numpy_dtype == np.dtype(object)


class TestTableSchema:
    def test_position_lookup(self):
        schema = numeric_schema("t", ["a", "b", "c"], primary_key="a")
        assert schema.position_of("b") == 1
        assert schema.column("c").name == "c"
        assert "b" in schema
        assert "z" not in schema

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")], primary_key="a")

    def test_rejects_unknown_primary_key(self):
        with pytest.raises(SchemaError):
            numeric_schema("t", ["a", "b"], primary_key="z")

    def test_rejects_nullable_primary_key(self):
        # An insert without it would store the row and then miss the
        # primary index: the column must be there in every row.
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", nullable=True), Column("b")],
                        primary_key="a")

    def test_rejects_empty_schema(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [], primary_key="a")

    def test_unknown_column_raises(self):
        schema = numeric_schema("t", ["a", "b"], primary_key="a")
        with pytest.raises(SchemaError):
            schema.position_of("missing")

    def test_validate_row_requires_non_nullable(self):
        schema = TableSchema(
            "t", [Column("a"), Column("b", nullable=True)], primary_key="a"
        )
        schema.validate_row({"a": 1.0})
        with pytest.raises(SchemaError):
            schema.validate_row({"b": 2.0})
        with pytest.raises(SchemaError):
            schema.validate_row({"a": 1.0, "zzz": 2.0})

    def test_row_byte_width(self):
        schema = numeric_schema("t", ["a", "b", "c"], primary_key="a")
        assert schema.row_byte_width() == 24

    def test_iteration_order(self):
        schema = numeric_schema("t", ["a", "b", "c"], primary_key="a")
        assert schema.column_names == ["a", "b", "c"]
        assert len(schema) == 3
        assert [c.name for c in schema] == ["a", "b", "c"]


class TestColumnStatistics:
    def test_observe_single_values(self):
        stats = ColumnStatistics()
        stats.observe(5.0)
        stats.observe(-3.0)
        stats.observe(10.0)
        assert stats.count == 3
        assert stats.value_range == (-3.0, 10.0)

    def test_observe_many(self):
        stats = ColumnStatistics()
        stats.observe_many(np.array([1.0, 2.0, 3.0]))
        stats.observe_many(np.array([]))
        assert stats.count == 3
        assert stats.value_range == (1.0, 3.0)

    def test_empty_range_raises(self):
        with pytest.raises(SchemaError):
            ColumnStatistics().value_range
