"""Table schemas and column descriptors.

The engine stores data column-wise in numpy arrays, so the schema layer is
responsible for mapping logical column names to physical positions and for
describing the value domain of each column (used by the optimizer statistics
and by the memory model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError, StorageError


class DataType(enum.Enum):
    """Physical data types supported by the storage layer.

    The paper's workloads only use 8-byte numeric columns, but the schema layer
    also supports 64-bit integers and fixed-width strings so that the Stock
    workload can carry ticker symbols and dates.
    """

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"

    @property
    def numpy_dtype(self) -> np.dtype:
        """Return the numpy dtype used to store values of this type."""
        if self is DataType.INT64:
            return np.dtype(np.int64)
        if self is DataType.FLOAT64:
            return np.dtype(np.float64)
        return np.dtype(object)

    @property
    def byte_width(self) -> int:
        """Nominal width in bytes used by the analytic memory model."""
        if self is DataType.STRING:
            return 16
        return 8


@dataclass(frozen=True)
class Column:
    """A single column in a table schema.

    Attributes:
        name: Logical column name, unique within the table.
        dtype: Physical data type.
        nullable: Whether NULL is permitted — stored as ``np.nan`` for
            floats, ``0`` for ints and ``None`` for strings.  No range
            predicate matches a NaN, so a NULL float is never in an answer
            (and a Hermit index keeps no entry for a NULL target).
    """

    name: str
    dtype: DataType = DataType.FLOAT64
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("column name must be a non-empty string")


class TableSchema:
    """An ordered collection of columns plus the primary-key designation.

    Args:
        name: Table name.
        columns: Ordered column descriptors.
        primary_key: Name of the primary-key column.  Must be one of
            ``columns``, and not nullable: the engine builds a primary
            index on it, so every row carries one.
    """

    def __init__(self, name: str, columns: Iterable[Column], primary_key: str) -> None:
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self._positions = {c.name: i for i, c in enumerate(self.columns)}
        if primary_key not in self._positions:
            raise SchemaError(
                f"primary key {primary_key!r} is not a column of table {name!r}"
            )
        if self.columns[self._positions[primary_key]].nullable:
            raise SchemaError(f"primary key {primary_key!r} cannot be nullable")
        self.primary_key = primary_key

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._positions

    def __repr__(self) -> str:
        cols = ", ".join(c.name for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}], pk={self.primary_key!r})"

    @property
    def column_names(self) -> list[str]:
        """Column names in physical order."""
        return [c.name for c in self.columns]

    def position_of(self, column_name: str) -> int:
        """Return the physical position of ``column_name``.

        Raises:
            SchemaError: If the column does not exist.
        """
        try:
            return self._positions[column_name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {column_name!r}"
            ) from None

    def column(self, column_name: str) -> Column:
        """Return the :class:`Column` descriptor for ``column_name``."""
        return self.columns[self.position_of(column_name)]

    def validate_row(self, row: dict) -> None:
        """Validate that ``row`` provides a value for every non-nullable column.

        The column check of every insert: a column-oriented batch is
        checked by :meth:`validate_columns`, which calls this.

        Raises:
            SchemaError: If a required column is missing or an unknown column
                is supplied.
        """
        for key in row:
            if key not in self._positions:
                raise SchemaError(
                    f"row references unknown column {key!r} of table {self.name!r}"
                )
        for column in self.columns:
            if column.name not in row and not column.nullable:
                raise SchemaError(
                    f"row is missing non-nullable column {column.name!r}"
                )

    def validate_columns(self, columns: dict[str, Sequence]) -> int:
        """Schema-check a column-oriented batch without mutating anything.

        Returns the row count of the batch.  A batch of no rows (``{}``, or
        columns of length 0) is accepted as it stands: there is no row to
        check.

        Raises:
            StorageError: On unequal column lengths.
            SchemaError: On an unknown or a missing non-nullable column
                (:meth:`validate_row`).
        """
        if not columns:
            return 0
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise StorageError("insert_many received columns of unequal length")
        count = lengths.pop()
        if count:
            self.validate_row(columns)
        return count

    def row_byte_width(self) -> int:
        """Nominal row width in bytes, used by the analytic memory model."""
        return sum(c.dtype.byte_width for c in self.columns)


def numeric_schema(name: str, column_names: Iterable[str], primary_key: str,
                   dtype: DataType = DataType.FLOAT64) -> TableSchema:
    """Convenience constructor for the all-numeric tables the paper uses.

    Args:
        name: Table name.
        column_names: Ordered column names.
        primary_key: Primary-key column name.
        dtype: Data type shared by all columns.
    """
    columns = [Column(c, dtype=dtype) for c in column_names]
    return TableSchema(name, columns, primary_key=primary_key)


@dataclass
class ColumnStatistics:
    """Simple per-column statistics maintained by the engine.

    These mirror the "optimizer statistics" the paper relies on to obtain the
    target column's full value range for TRS-Tree construction.
    """

    count: int = 0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        """Fold one value into the statistics."""
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def observe_many(self, values: np.ndarray) -> None:
        """Fold a vector of values into the statistics."""
        if len(values) == 0:
            return
        self.count += int(len(values))
        lo = float(np.min(values))
        hi = float(np.max(values))
        if lo < self.minimum:
            self.minimum = lo
        if hi > self.maximum:
            self.maximum = hi

    @property
    def value_range(self) -> tuple[float, float]:
        """Return ``(min, max)``; raises if no values have been observed."""
        if self.count == 0:
            raise SchemaError("no values observed; value range is undefined")
        return (self.minimum, self.maximum)
