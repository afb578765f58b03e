"""In-memory columnar base table.

This is the storage substrate of the "DBMS-X" side of the evaluation: an
append-only, column-oriented table whose columns are numpy arrays.  Rows are
addressed by their slot number (a :class:`~repro.storage.identifiers.RowLocation`);
deleting a row marks the slot dead rather than compacting, which mirrors how a
main-memory RDBMS with physical tuple pointers behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import SchemaError, StorageError, TupleNotFoundError
from repro.storage.identifiers import RowLocation
from repro.storage.memory import MemoryReport, table_bytes
from repro.storage.schema import Column, ColumnStatistics, DataType, TableSchema

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


class Table:
    """A columnar, slot-addressed, in-memory table.

    Args:
        schema: The table schema.

    Rows are inserted as column batches (:meth:`insert_many`, a mapping of
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

    def insert_many(self, rows: dict[str, Sequence]) -> np.ndarray:
        """Bulk-insert column-oriented data.

        Args:
            rows: Mapping from column name to an equal-length sequence of
                values.  Columns not supplied must be nullable.

        Returns:
            The slots of the inserted rows, in insertion order, as one
            int64 array (consecutive: the batch is appended).
        """
        count = self.schema.validate_columns(rows)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        # Coerce every supplied column before touching any storage or
        # statistics: a batch rejected here (bad dtype, unparsable string)
        # leaves the table bit-identical to before the call.
        prepared: list[tuple[str, object, np.ndarray | None]] = []
        for column in self.schema:
            if column.name not in rows:
                prepared.append((column.name, None, None))
                continue
            if column.dtype is DataType.STRING:
                prepared.append((column.name, rows[column.name], None))
                continue
            raw = np.asarray(rows[column.name])
            target_dtype = column.dtype.numpy_dtype
            try:
                coerced = (raw if raw.dtype == target_dtype
                           else raw.astype(target_dtype))
                observed = raw.astype(np.float64, copy=False)
            except (ValueError, TypeError) as error:
                raise SchemaError(
                    f"column {column.name!r} cannot coerce to "
                    f"{column.dtype.value}: {error}"
                ) from error
            prepared.append((column.name, coerced, observed))
        start = self._next_slot
        self._reserve(start + count)
        for name, values, observed in prepared:
            target = self._columns[name]
            if values is None:
                target[start:start + count] = self._null_value(
                    self.schema.column(name).dtype
                )
            else:
                target[start:start + count] = values
                if observed is not None:
                    self.statistics[name].observe_many(observed)
        self._live[start:start + count] = True
        self._next_slot = start + count
        self._live_count += count
        return np.arange(start, start + count, dtype=np.int64)

    def validate_insert_many(self, rows: dict[str, Sequence]) -> int:
        """Full dry run of :meth:`insert_many`: schema *and* dtype checks.

        The write-ahead log uses this as its pre-logging gate — it must
        reject everything :meth:`insert_many` would reject (including
        values that fail dtype coercion), so a logged batch is guaranteed
        to replay successfully.

        Returns the row count of the batch (0 for an empty one).

        Raises:
            StorageError: On unequal column lengths.
            SchemaError: On an unknown or a missing non-nullable column, or
                an uncoercible value.
        """
        count = self.schema.validate_columns(rows)
        if count == 0:
            return 0
        for column in self.schema:
            if column.name not in rows or column.dtype is DataType.STRING:
                continue
            raw = np.asarray(rows[column.name])
            target_dtype = column.dtype.numpy_dtype
            try:
                if raw.dtype != target_dtype:
                    raw.astype(target_dtype)
                raw.astype(np.float64, copy=False)
            except (ValueError, TypeError) as error:
                raise SchemaError(
                    f"column {column.name!r} cannot coerce to "
                    f"{column.dtype.value}: {error}"
                ) from error
        return count

    def delete(self, location: RowLocation | int) -> None:
        """Mark the row at ``location`` as deleted.

        Raises:
            TupleNotFoundError: If the slot is out of range or already dead.
        """
        slot = self._check_live(location)
        self._live[slot] = False
        self._live_count -= 1

    def update(self, location: RowLocation | int, changes: dict) -> None:
        """Update columns of a live row in place.

        Every change is validated and coerced *before* the first column is
        written: a rejected update (unknown column, uncoercible value)
        leaves the row, and the running statistics, untouched — previously
        a failure on the second change could leave the first one applied.

        Raises:
            TupleNotFoundError: If the slot does not hold a live row.
            StorageError: If ``changes`` references an unknown column.
            SchemaError: If a value cannot be coerced to its column's dtype.
        """
        slot = self._check_live(location)
        prepared = self.validate_changes(changes)
        for name, (stored, stats_value) in prepared.items():
            self._columns[name][slot] = stored
            if stats_value is not None:
                self.statistics[name].observe(stats_value)

    def validate_changes(self, changes: dict) -> dict[str, tuple]:
        """Validate and coerce an update's changes without mutating anything.

        Returns:
            Column name → ``(stored value, observed float or None)``, ready
            to apply.  Callers that need the post-coercion value before the
            write happens (the primary-key re-keying check, the write-ahead
            log) use this as the pre-mutation gate.

        Raises:
            StorageError: If a change references an unknown column.
            SchemaError: If a value cannot be coerced to its column's dtype.
        """
        prepared: dict[str, tuple] = {}
        for name, value in changes.items():
            if name not in self.schema:
                raise StorageError(f"update references unknown column {name!r}")
            prepared[name] = self._coerce_value(self.schema.column(name), value)
        return prepared

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
        calls on the lookup hot path.
        """
        slots = np.asarray(slots, dtype=np.int64)
        return self._live_mask(slots)[1]

    def filter_in_range(self, slots: np.ndarray, column_name: str,
                        low: float, high: float) -> np.ndarray:
        """Slots of live rows whose ``column_name`` value is in ``[low, high]``.

        This is the base-table validation step (Step 4) of the
        single-request lookup: one fancy-index gather plus one boolean
        mask.  Input order is preserved; dead or out-of-range slots are
        silently dropped (they are simply not matches).
        """
        self.schema.position_of(column_name)
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return slots
        if slots.size <= 8:
            # Point lookups resolve to a handful of candidates; a direct loop
            # beats the fixed cost of clip + three mask kernels there.
            live, column = self._live, self._columns[column_name]
            keep = [slot for slot in slots.tolist()
                    if 0 <= slot < self._next_slot and live[slot]
                    and low <= column[slot] <= high]
            return np.asarray(keep, dtype=np.int64)
        clipped, mask = self._live_mask(slots)
        values = self._columns[column_name][clipped]
        mask &= (values >= low) & (values <= high)
        return slots[mask]

    def in_range_mask(self, slots: np.ndarray, column_name: str,
                      lows: "np.ndarray | float",
                      highs: "np.ndarray | float") -> np.ndarray:
        """Boolean mask of live rows whose value lies in per-slot bounds.

        The segmented counterpart of :meth:`filter_in_range`: ``lows`` and
        ``highs`` may be arrays aligned with ``slots`` (each candidate is
        checked against *its own query's* predicate), so one call validates
        the concatenated candidates of a whole query batch.  Dead and
        out-of-range slots are masked out, matching the scalar method.
        Candidates come from the table's own indexes, so one ``min`` /
        ``max`` usually shows every slot in range and the clip is skipped.
        """
        self.schema.position_of(column_name)
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return np.zeros(0, dtype=bool)
        if slots.min() >= 0 and slots.max() < self._next_slot:
            mask = self._live[slots]
            values = self._columns[column_name][slots]
        else:
            clipped, mask = self._live_mask(slots)
            values = self._columns[column_name][clipped]
        mask &= values >= lows
        mask &= values <= highs
        return mask

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

    def _live_mask(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(in-bounds-clipped slots, live mask) for a slot array.

        Clipping only keeps the fancy index in bounds; clipped positions are
        masked out by the bounds check.
        """
        clipped = np.clip(slots, 0, max(0, self._next_slot - 1))
        mask = (slots >= 0) & (slots < self._next_slot) & self._live[clipped]
        return clipped, mask

    def _check_live(self, location: RowLocation | int) -> int:
        slot = int(location)
        if not (0 <= slot < self._next_slot) or not self._live[slot]:
            raise TupleNotFoundError(f"slot {slot} does not hold a live row")
        return slot

    def _coerce_value(self, column: Column, value) -> tuple:
        """Coerce one value to its column's stored dtype, without mutating.

        Returns:
            ``(stored value, float observed by the statistics or None)``.
            The coercion uses numpy assignment semantics (``2.7`` into an
            INT64 column stores ``2``) while the statistics observe the raw
            value, matching the behaviour of the apply loops.

        Raises:
            SchemaError: If the value cannot be stored in the column.
        """
        if column.dtype is DataType.STRING:
            return value, None
        scratch = np.empty(1, dtype=column.dtype.numpy_dtype)
        try:
            scratch[0] = value
            observed = float(value)
        except (ValueError, TypeError, OverflowError) as error:
            raise SchemaError(
                f"value {value!r} cannot be stored in column "
                f"{column.name!r} ({column.dtype.value})"
            ) from error
        return scratch[0], observed

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
