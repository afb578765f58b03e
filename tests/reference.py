"""Reference answers the tests compare the engine against.

``ModelTable`` is the model of one table the engine is checked against: its
rows as NumPy columns, sharing no code with storage, indexes, planner or
executor; every query is one mask over its live rows, and
``assert_table_matches`` compares a stored table with it.
``scan_locations`` is the same mask over a projection of an engine table's
live rows.  ``trs_lookup_scan`` answers a TRS-Tree lookup by scanning every
leaf.
``assert_locations`` checks a ``QueryResult`` against the result contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.trs_tree import TRSLookupResult, TRSTree
from repro.index.base import KeyRange
from repro.storage.schema import DataType, TableSchema
from repro.storage.table import Table


def scan_locations(table: Table, *predicates) -> list[int]:
    """Sorted locations of the live rows satisfying every predicate.

    ``predicates`` are objects with ``column`` / ``low`` / ``high``
    (:class:`~repro.engine.query.RangePredicate`); bounds are inclusive.
    """
    columns = [predicate.column for predicate in predicates]
    slots, *values = table.project(columns)
    mask = np.ones(slots.shape, dtype=bool)
    for predicate, column_values in zip(predicates, values):
        mask &= (column_values >= predicate.low) & (column_values <= predicate.high)
    return sorted(int(slot) for slot in slots[mask])


def assert_locations(result, expected) -> None:
    """The result contract: ``locations`` is a sorted, duplicate-free int64
    ``ndarray`` — and here it equals ``expected``."""
    found = result.locations
    assert isinstance(found, np.ndarray), type(found)
    assert found.dtype == np.int64 and found.ndim == 1
    assert bool(np.all(np.diff(found) > 0)), "not sorted and duplicate-free"
    assert found.tolist() == list(expected)


class ModelTable:
    """The model of one table: every row ever stored, as NumPy columns.

    Rows keep their insertion order; ``locations`` holds the location the
    engine gave each row and ``live`` masks the deleted ones.  Numeric
    columns are float64 (NaN is NULL), string columns object arrays (None
    is NULL).
    ``stats`` is each numeric column's ``(count, minimum, maximum)`` over
    every value ever stored, as ``Table.statistics`` counts it.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.locations = np.empty(0, dtype=np.int64)
        self.live = np.empty(0, dtype=bool)
        self.columns = {column.name: np.empty(0, dtype=_model_dtype(column))
                        for column in schema}
        self.stats = {column.name: (0, float("inf"), float("-inf"))
                      for column in schema
                      if column.dtype is not DataType.STRING}

    @property
    def num_rows(self) -> int:
        return int(self.live.sum())

    def live_locations(self) -> np.ndarray:
        return np.sort(self.locations[self.live])

    def insert_many(self, columns: dict, locations) -> None:
        """Append rows given as column -> values, every column supplied."""
        for column in self.schema:
            values = columns[column.name]
            if column.name in self.stats:
                self._observe(column.name, np.asarray(values, np.float64))
            self.columns[column.name] = np.concatenate([
                self.columns[column.name],
                np.asarray(values, dtype=_model_dtype(column))])
        self.locations = np.concatenate([
            self.locations, np.asarray(locations, dtype=np.int64)])
        self.live = np.concatenate([self.live,
                                    np.ones(len(locations), dtype=bool)])

    def delete(self, location: int) -> None:
        self.live[self._row(location)] = False

    def update(self, location: int, changes: dict,
               new_location: int | None = None) -> None:
        """Apply ``changes``; a row given a ``new_location`` moves there."""
        if new_location is not None and new_location != location:
            row = {**self.fetch(location), **changes}
            self.delete(location)
            self.insert_many({name: [value] for name, value in row.items()},
                             [new_location])
            return
        row = self._row(location)
        for name, value in changes.items():
            self.columns[name][row] = value
            if name in self.stats:
                self._observe(name, np.array([value], dtype=np.float64))

    def update_many(self, locations, columns: dict) -> None:
        """Apply one batch of in-place changes: ``columns`` maps a column
        to the rows' new values, aligned with ``locations``.  The
        statistics observe each column's batch at once, as an insert's."""
        rows = [self._row(location) for location in locations]
        for name, values in columns.items():
            self.columns[name][rows] = np.asarray(
                values, dtype=self.columns[name].dtype)
            if name in self.stats:
                self._observe(name, np.asarray(values, np.float64))

    def fetch(self, location: int) -> dict:
        row = self._row(location)
        return {name: values[row].item() if hasattr(values[row], "item")
                else values[row] for name, values in self.columns.items()}

    def values(self, column: str) -> np.ndarray:
        """The live rows' values of ``column``, in location order."""
        order = np.argsort(self.locations[self.live], kind="stable")
        return self.columns[column][self.live][order]

    def scan(self, predicates) -> np.ndarray:
        """Sorted locations of the live rows satisfying every predicate
        (objects with ``column`` / ``low`` / ``high``; inclusive bounds)."""
        mask = self.live.copy()
        for predicate in predicates:
            values = self.columns[predicate.column].astype(np.float64)
            mask &= (values >= predicate.low) & (values <= predicate.high)
        return np.sort(self.locations[mask])

    def _row(self, location: int) -> int:
        rows = np.flatnonzero((self.locations == location) & self.live)
        assert rows.size == 1, f"no live model row at {location}"
        return int(rows[0])

    def _observe(self, name: str, values: np.ndarray) -> None:
        count, low, high = self.stats[name]
        known = values[~np.isnan(values)]
        if known.size:
            # Every value counts; the bounds move over the non-NaN ones.
            low = min(low, float(known.min()))
            high = max(high, float(known.max()))
        self.stats[name] = (count + values.size, low, high)


def _model_dtype(column) -> type:
    return object if column.dtype is DataType.STRING else np.float64


def assert_table_matches(table: Table, model: ModelTable) -> None:
    """A stored table holds exactly the model's rows: the same live
    locations, slots allocated, values and column statistics."""
    assert table.num_slots == model.locations.size
    assert table.live_slots().tolist() == model.live_locations().tolist()
    for column in table.schema:
        expected = model.values(column.name)
        if column.dtype is DataType.STRING:
            found = [table.fetch(int(slot))[column.name]
                     for slot in table.live_slots()]
            assert found == expected.tolist(), column.name
            continue
        found = table.column_array(column.name).astype(np.float64)
        assert np.array_equal(found, expected, equal_nan=True), column.name
        stats = table.statistics[column.name]
        assert (stats.count, stats.minimum, stats.maximum) == \
            model.stats[column.name], column.name


def trs_lookup_scan(tree: TRSTree, predicate: KeyRange) -> TRSLookupResult:
    """Algorithm 2 as a scan of every leaf — the oracle for ``TRSTree.lookup``
    / ``lookup_many``.

    No ``bisect``, no ``ModelTable``, no coalescing: each leaf's effective
    range (open-ended on the tree's edges, where out-of-domain inserts are
    routed) is intersected with the predicate; an overlapped leaf with a
    covered tuple behind its band emits its own model's ``host_range`` over
    the overlap; the ranges go through ``KeyRange.union``; the outliers are
    the buffer's pairs whose key the predicate holds.
    """
    result = TRSLookupResult(outlier_tids=[])
    table = tree._table
    if table is None:
        return result
    last = len(table.models) - 1
    for row, model in enumerate(table.models):
        effective = KeyRange(
            float("-inf") if row == 0 else table.bounds[row - 1],
            float("inf") if row == last else table.bounds[row])
        overlap = effective.intersect(predicate)
        if overlap is None:
            continue
        result.leaves_visited += 1
        if table.num_model_covered[row] > 0:
            result.host_ranges.append(
                KeyRange(*model.host_range(overlap.low, overlap.high)))
    result.nodes_visited = result.leaves_visited
    result.host_ranges = KeyRange.union(result.host_ranges)
    result.outlier_tids = [tid for key, tid in tree._outliers.items()
                           if predicate.contains(key)]
    return result
