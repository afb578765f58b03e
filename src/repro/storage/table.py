"""In-memory columnar base table.

This is the storage substrate of the "DBMS-X" side of the evaluation: an
append-only, column-oriented table whose columns are numpy arrays.  Rows are
addressed by their slot number (a :class:`~repro.storage.identifiers.RowLocation`);
deleting a row marks the slot dead rather than compacting, which mirrors how a
main-memory RDBMS with physical tuple pointers behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import SchemaError, StorageError, TupleNotFoundError
from repro.storage.identifiers import RowLocation
from repro.storage.memory import MemoryReport, table_bytes
from repro.storage.schema import ColumnStatistics, DataType, TableSchema

_INITIAL_CAPACITY = 64


@dataclass
class TableSnapshot:
    """A copy of a table's physical state, as captured by :meth:`Table.snapshot`.

    Attributes:
        columns: Column name → array of the first ``next_slot`` values
            (dead slots included, so row locations stay stable across a
            checkpoint/restore round trip).
        live: Liveness bitmap aligned with the column arrays.
        next_slot: Number of allocated slots.
        statistics: Column name → ``(count, minimum, maximum)`` of the
            running optimizer statistics — these observe *all* values ever
            inserted (deleted rows included), so they cannot be rebuilt
            from the live data and must travel with the snapshot.
    """

    columns: dict[str, np.ndarray]
    live: np.ndarray
    next_slot: int
    statistics: dict[str, tuple[int, float, float]]


class WriteBatch(NamedTuple):
    """One write batch, checked and coerced by a ``Table.validate_*`` call.

    The matching mutator (:meth:`Table.insert_many`, :meth:`Table.update_many`,
    :meth:`Table.delete_many`) applies it without checking it again, and
    the database hands the same columns to the primary index and every
    mechanism.  A batch holds for the table state it was checked against:
    it is applied before any other write (``Database`` does both under one
    write epoch).

    Attributes:
        slots: The rows written, as int64: an insert's appended slots, an
            update's or a delete's checked locations.
        columns: Column name → the values as the table stores them, aligned
            with ``slots``: every column for an insert (the omitted ones
            null-filled), the supplied ones for an update, none for a delete.
        observed: Column name → the raw floats the column statistics
            observe, for the supplied numeric columns.
    """

    slots: np.ndarray
    columns: dict[str, Sequence]
    observed: dict[str, np.ndarray]


class Table:
    """A columnar, slot-addressed, in-memory table.

    Args:
        schema: The table schema.

    Every write is two steps: a ``validate_*`` call checks and coerces the
    batch and returns a :class:`WriteBatch` without mutating anything, and
    the matching mutator applies exactly that batch.  So a rejected batch
    leaves the table bit-identical, and the write-ahead log records only
    batches that apply.  Rows are inserted as column batches (a mapping of
    column names to equal-length value sequences); missing nullable columns
    are stored as NaN (floats) / 0 (ints) / None (strings).
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._capacity = _INITIAL_CAPACITY
        self._columns: dict[str, np.ndarray] = {
            column.name: np.zeros(self._capacity, dtype=column.dtype.numpy_dtype)
            for column in schema
        }
        self._live = np.zeros(self._capacity, dtype=bool)
        self._next_slot = 0
        self._live_count = 0
        self.statistics: dict[str, ColumnStatistics] = {
            column.name: ColumnStatistics() for column in schema
        }

    # ------------------------------------------------------------------ write

    def validate_insert_many(self, rows: dict[str, Sequence]) -> WriteBatch:
        """Check and coerce an insert batch without mutating anything.

        Args:
            rows: Mapping from column name to an equal-length sequence of
                values.  Columns not supplied must be nullable; the batch
                holds them null-filled.

        Returns:
            The batch :meth:`insert_many` appends, at the next free slots
            (an empty batch for no rows).

        Raises:
            StorageError: On unequal column lengths.
            SchemaError: On an unknown or a missing non-nullable column, or
                a value its column's dtype cannot store.
        """
        count = self.schema.validate_columns(rows)
        if not count:
            return WriteBatch(np.empty(0, dtype=np.int64), {}, {})
        columns, observed = self._coerced(rows, count)
        for column in self.schema:
            if column.name not in columns:
                columns[column.name] = np.full(
                    count, self._null_value(column.dtype),
                    dtype=column.dtype.numpy_dtype)
        start = self._next_slot
        return WriteBatch(np.arange(start, start + count, dtype=np.int64),
                          columns, observed)

    def validate_update_many(self, locations: "Sequence[int] | np.ndarray",
                             columns: dict[str, Sequence]) -> WriteBatch:
        """Check and coerce an update batch without mutating anything: an
        updated row is a whole row again, checked as an inserted one.

        ``columns`` maps a column name to the rows' new values, aligned
        with ``locations``.

        Returns:
            The batch :meth:`update_many` writes: the checked slots and the
            supplied columns only.

        Raises:
            TupleNotFoundError / StorageError: As :meth:`validate_locations`.
            SchemaError: On an unknown column, or a column that does not
                hold one coercible value per location.
        """
        slots = self.validate_locations(locations).slots
        self.schema.validate_row({**dict.fromkeys(self.schema.column_names),
                                  **columns})
        return WriteBatch(slots, *self._coerced(columns, slots.size))

    def validate_locations(self, locations: "Sequence[int] | np.ndarray",
                           ) -> WriteBatch:
        """Check the locations of a delete batch: a location out of range
        or dead is a ``TupleNotFoundError``, one listed twice a
        ``StorageError``.  Returns the batch :meth:`delete_many` applies."""
        slots = np.asarray(locations, dtype=np.int64).reshape(-1)
        live = self.liveness(slots)
        if not live.all():
            raise TupleNotFoundError(
                f"slot {int(slots[np.argmin(live)])} does not hold a live row")
        ordered = np.sort(slots)
        if (ordered[1:] == ordered[:-1]).any():
            raise StorageError("a location is listed twice in one batch")
        return WriteBatch(slots, {}, {})

    def insert_many(self, batch: WriteBatch) -> np.ndarray:
        """Append a batch of :meth:`validate_insert_many`; returns its slots."""
        slots = batch.slots
        if slots.size:
            start, stop = int(slots[0]), int(slots[-1]) + 1
            self._reserve(stop)
            self._store(slice(start, stop), batch)
            self._live[start:stop] = True
            self._next_slot = stop
            self._live_count += slots.size
        return slots

    def update_many(self, batch: WriteBatch) -> None:
        """Write a batch of :meth:`validate_update_many` in place."""
        self._store(batch.slots, batch)

    def delete_many(self, batch: WriteBatch) -> None:
        """Mark the rows of a batch of :meth:`validate_locations` deleted."""
        self._live[batch.slots] = False
        self._live_count -= batch.slots.size

    # ------------------------------------------------------------------- read

    def fetch(self, location: RowLocation | int) -> dict:
        """Return the full row stored at ``location`` as a dict."""
        slot = self._check_live(location)
        return {
            column.name: self._columns[column.name][slot].item()
            if column.dtype is not DataType.STRING
            else self._columns[column.name][slot]
            for column in self.schema
        }

    def value(self, location: RowLocation | int, column_name: str):
        """Return a single column value of a live row."""
        slot = self._check_live(location)
        self.schema.position_of(column_name)
        value = self._columns[column_name][slot]
        return value.item() if hasattr(value, "item") else value

    def values(self, slots: "np.ndarray | Sequence[int]",
               column_name: str) -> np.ndarray:
        """Vectorised fetch of one column for many slots (one gather).

        Dead slots are not checked here (hot path); callers that may hold
        stale locations should use :meth:`is_live` first.
        """
        self.schema.position_of(column_name)
        return self._columns[column_name][np.asarray(slots, dtype=np.int64)]

    def column_array(self, column_name: str) -> np.ndarray:
        """Return the live values of a column along with their slots.

        Returns:
            A read-only view of the column restricted to live slots, aligned
            with :meth:`live_slots`.
        """
        self.schema.position_of(column_name)
        return self._columns[column_name][: self._next_slot][
            self._live[: self._next_slot]
        ]

    def live_slots(self) -> np.ndarray:
        """Slot numbers of all live rows, ascending."""
        return np.flatnonzero(self._live[: self._next_slot])

    def is_live(self, location: RowLocation | int) -> bool:
        """Whether ``location`` refers to a live row."""
        slot = int(location)
        return 0 <= slot < self._next_slot and bool(self._live[slot])

    def liveness(self, slots: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_live`: a boolean mask aligned with ``slots``.

        Out-of-range slots are reported dead rather than raising, matching
        the scalar method; one fancy-index replaces per-row ``_check_live``
        calls.
        """
        return self._live_mask(np.asarray(slots, dtype=np.int64))[1]

    def filter_in_range(self, slots: np.ndarray, column_name: str,
                        low: float, high: float) -> np.ndarray:
        """Slots of live rows whose ``column_name`` value is in ``[low, high]``.

        This is the base-table validation step (Step 4) of the
        single-request lookup: the slots :meth:`in_range_mask` would keep.
        Input order is preserved; dead or out-of-range slots are silently
        dropped (they are simply not matches).
        """
        slots = np.asarray(slots, dtype=np.int64)
        return slots[self._in_range(slots, column_name, low, high)]

    def in_range_mask(self, slots: np.ndarray, column_name: str,
                      lows: "np.ndarray | float",
                      highs: "np.ndarray | float") -> np.ndarray:
        """Boolean mask of live rows whose value lies in per-slot bounds.

        The segmented counterpart of :meth:`filter_in_range`: ``lows`` and
        ``highs`` may be arrays aligned with ``slots`` (each candidate is
        checked against *its own query's* predicate), so one call validates
        the concatenated candidates of a whole query batch.  Dead and
        out-of-range slots are masked out, matching the scalar method.
        """
        return self._in_range(np.asarray(slots, dtype=np.int64), column_name,
                              lows, highs)

    def scan(self, column_names: Sequence[str] | None = None) -> Iterator[tuple[int, dict]]:
        """Iterate ``(slot, row)`` pairs over live rows.

        Args:
            column_names: Restrict the projected columns; all columns if None.
        """
        names = list(column_names) if column_names is not None else self.schema.column_names
        for name in names:
            self.schema.position_of(name)
        for slot in self.live_slots():
            yield int(slot), {name: self._columns[name][slot].item()
                              if self.schema.column(name).dtype is not DataType.STRING
                              else self._columns[name][slot]
                              for name in names}

    def project(self, column_names: Sequence[str]) -> tuple[np.ndarray, ...]:
        """Project live rows onto ``column_names`` as aligned numpy arrays.

        The first element of the returned tuple is always the slot array;
        subsequent elements are the requested columns.  This is the bulk path
        used by TRS-Tree construction ("ProjectTable" in Algorithm 1).
        """
        slots = self.live_slots()
        arrays = [slots]
        for name in column_names:
            self.schema.position_of(name)
            arrays.append(self._columns[name][slots])
        return tuple(arrays)

    # ------------------------------------------------------------- accounting

    @property
    def num_rows(self) -> int:
        """Number of live rows."""
        return self._live_count

    @property
    def num_slots(self) -> int:
        """Number of allocated slots (live + dead)."""
        return self._next_slot

    def value_range(self, column_name: str) -> tuple[float, float]:
        """The observed (min, max) of a column, from the optimizer statistics."""
        return self.statistics[column_name].value_range

    def memory_bytes(self) -> int:
        """Analytic size of the base table in bytes."""
        return table_bytes(self._next_slot, self.schema.row_byte_width())

    def memory_report(self) -> MemoryReport:
        """Memory report with a single ``table`` component."""
        report = MemoryReport()
        report.add("table", self.memory_bytes())
        return report

    # ---------------------------------------------------------------- private

    def _reserve(self, capacity: int) -> None:
        if capacity <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < capacity:
            new_capacity *= 2
        for name, array in self._columns.items():
            grown = np.zeros(new_capacity, dtype=array.dtype)
            grown[: self._next_slot] = array[: self._next_slot]
            self._columns[name] = grown
        grown_live = np.zeros(new_capacity, dtype=bool)
        grown_live[: self._next_slot] = self._live[: self._next_slot]
        self._live = grown_live
        self._capacity = new_capacity

    def _in_range(self, slots: np.ndarray, column_name: str,
                  lows: "np.ndarray | float",
                  highs: "np.ndarray | float") -> np.ndarray:
        """The validation both read tails share, over int64 ``slots``."""
        try:
            column = self._columns[column_name]
        except KeyError:
            self.schema.position_of(column_name)  # the unknown-column error
            raise
        gathered, mask = self._live_mask(slots)
        values = column[gathered]
        mask &= values >= lows
        mask &= values <= highs
        return mask

    def _live_mask(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slots safe to gather, live mask) for an int64 slot array.

        Read as unsigned, a negative slot is above every bound, so one
        ``max`` checks both ends.  Candidates come from the table's own
        indexes, so the check almost always passes and the slots gather
        as they are; otherwise an out-of-range slot gathers slot 0 and the
        bounds mask drops it.
        """
        unsigned = slots.view(np.uint64)
        if np.maximum.reduce(unsigned, initial=0) < self._next_slot:
            return slots, self._live[slots]
        in_bounds = unsigned < self._next_slot
        gathered = np.where(in_bounds, slots, 0)
        return gathered, in_bounds & self._live[gathered]

    def _check_live(self, location: RowLocation | int) -> int:
        slot = int(location)
        if not (0 <= slot < self._next_slot) or not self._live[slot]:
            raise TupleNotFoundError(f"slot {slot} does not hold a live row")
        return slot

    def _coerced(self, columns: dict[str, Sequence], count: int,
                 ) -> tuple[dict[str, Sequence], dict[str, np.ndarray]]:
        """``(column name → values as stored, column name → floats the
        statistics observe)`` for schema-checked columns of ``count`` rows,
        without mutating; a column its dtype cannot store is a
        ``SchemaError``.

        Numpy casting coerces (``2.7`` into an INT64 column stores ``2``)
        while the statistics observe the raw values; a string column is
        stored as given and not observed.
        """
        stored: dict[str, Sequence] = {}
        observed: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            column = self.schema.column(name)
            target_dtype = column.dtype.numpy_dtype
            try:
                if len(values) != count:
                    raise ValueError(f"{len(values)} values for {count} rows")
                if column.dtype is DataType.STRING:
                    stored[name] = values
                    continue
                raw = np.asarray(values)
                if raw.ndim != 1:
                    raise ValueError(f"{raw.shape} values for {count} rows")
                stored[name] = (raw if raw.dtype == target_dtype
                                else raw.astype(target_dtype))
                observed[name] = raw.astype(np.float64, copy=False)
            except (ValueError, TypeError, OverflowError) as error:
                raise SchemaError(
                    f"column {column.name!r} cannot coerce to "
                    f"{column.dtype.value}: {error}"
                ) from error
        return stored, observed

    def _store(self, slots: "slice | np.ndarray", batch: WriteBatch) -> None:
        """Write a batch's columns at ``slots``; the statistics observe it
        (column by column, while the column's values are in cache)."""
        for name, values in batch.columns.items():
            self._columns[name][slots] = values
            observed = batch.observed.get(name)
            if observed is not None:
                self.statistics[name].observe_many(observed)

    # ------------------------------------------------------------- durability

    def snapshot(self) -> TableSnapshot:
        """Copy the table's physical state for a checkpoint."""
        n = self._next_slot
        return TableSnapshot(
            columns={name: array[:n].copy()
                     for name, array in self._columns.items()},
            live=self._live[:n].copy(),
            next_slot=n,
            statistics={name: (stats.count, stats.minimum, stats.maximum)
                        for name, stats in self.statistics.items()},
        )

    def restore_snapshot(self, columns: dict[str, Sequence], live: Sequence,
                         next_slot: int,
                         statistics: dict[str, tuple] | None = None) -> None:
        """Restore physical state captured by :meth:`snapshot` (recovery).

        Only valid on a freshly created, empty table: restoring is the
        checkpoint-load half of recovery, never a general overwrite.

        Raises:
            StorageError: If the table is not empty or the snapshot does
                not line up with the schema.
        """
        if self._next_slot:
            raise StorageError(
                "restore_snapshot requires an empty table "
                f"(this one has {self._next_slot} allocated slots)"
            )
        live = np.asarray(live, dtype=bool)
        if len(live) != next_slot:
            raise StorageError("snapshot liveness length != next_slot")
        for column in self.schema:
            if column.name not in columns:
                raise StorageError(
                    f"snapshot is missing column {column.name!r}"
                )
            if len(columns[column.name]) != next_slot:
                raise StorageError(
                    f"snapshot column {column.name!r} length != next_slot"
                )
        self._reserve(max(next_slot, 1))
        for column in self.schema:
            self._columns[column.name][:next_slot] = np.asarray(
                columns[column.name], dtype=column.dtype.numpy_dtype
            )
        self._live[:next_slot] = live
        self._next_slot = next_slot
        self._live_count = int(live.sum())
        for name, (count, minimum, maximum) in (statistics or {}).items():
            if name in self.statistics:
                self.statistics[name] = ColumnStatistics(
                    count=int(count), minimum=float(minimum),
                    maximum=float(maximum),
                )

    @staticmethod
    def _null_value(dtype: DataType):
        if dtype is DataType.FLOAT64:
            return np.nan
        if dtype is DataType.INT64:
            return 0
        return None
