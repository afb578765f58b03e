"""Composite (multi-column) secondary index.

Section 3 of the paper notes that Hermit also covers multi-column indexes:
with a host index on ``(A, N)`` and a correlation between ``M`` and ``N``, a
query on ``(A, M)`` is answered by translating the ``M`` range into an ``N``
range and probing the composite host index.  This module provides that
composite host index for both Hermit and the baseline.

Entries are kept in a single sorted array of ``(leading, second, tid)``
triples.  For the scale the reproduction runs at this is as fast as a nested
B+-tree while being considerably simpler; the analytic memory model charges it
exactly like a two-key B+-tree so space comparisons stay fair.
"""

from __future__ import annotations

import bisect
import time
from typing import Iterable, Iterator

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import IndexStatistics, KeyRange, tid_items
from repro.storage.identifiers import PointerScheme, TupleId
from repro.storage.memory import DEFAULT_SIZE_MODEL, SizeModel


class CompositeIndex:
    """An index over a pair of columns ``(leading, second)``.

    Supports the access pattern the paper needs: a conjunctive range predicate
    on both key parts.
    """

    def __init__(self, size_model: SizeModel = DEFAULT_SIZE_MODEL,
                 node_capacity: int = 32) -> None:
        self.stats = IndexStatistics()
        self._size_model = size_model
        self._node_capacity = node_capacity
        self._entries: list[tuple[float, float, TupleId]] = []

    def insert(self, leading: float, second: float, tid: TupleId) -> None:
        """Insert the entry ``(leading, second) -> tid``."""
        self.stats.inserts += 1
        bisect.insort(self._entries, (float(leading), float(second), tid))

    def insert_many(self, leading: Iterable[float], second: Iterable[float],
                    tids: Iterable[TupleId]) -> None:
        """Batched insert: append the batch and let Timsort merge the runs."""
        batch = sorted(
            (float(lead), float(sec), tid)
            for lead, sec, tid in zip(leading, second, tid_items(list(tids)))
        )
        if not batch:
            return
        self.stats.inserts += len(batch)
        self._entries.extend(batch)
        self._entries.sort()

    def delete(self, leading: float, second: float, tid: TupleId) -> None:
        """Remove the entry ``(leading, second) -> tid``.

        Raises:
            KeyNotFoundError: If the entry is absent.
        """
        self.stats.deletes += 1
        entry = (float(leading), float(second), tid)
        index = bisect.bisect_left(self._entries, entry)
        if index < len(self._entries) and self._entries[index] == entry:
            self._entries.pop(index)
            return
        raise KeyNotFoundError(f"entry {entry!r} is not in the index")

    def range_search_array(self, leading_range: KeyRange,
                           second_range: KeyRange) -> np.ndarray:
        """Tuple ids matching both closed ranges, as one array.

        Two binary searches locate the contiguous leading-key run; the
        second-key filter is one vectorized mask over that run — the
        planner's access-path contract.
        """
        self.stats.range_lookups += 1
        start = bisect.bisect_left(self._entries, leading_range.low,
                                   key=lambda entry: entry[0])
        stop = bisect.bisect_right(self._entries, leading_range.high,
                                   key=lambda entry: entry[0])
        run = self._entries[start:stop]
        if not run:
            return np.empty(0, dtype=np.int64)
        seconds = np.fromiter((entry[1] for entry in run),
                              dtype=np.float64, count=len(run))
        tids = np.asarray([entry[2] for entry in run])
        mask = (seconds >= second_range.low) & (seconds <= second_range.high)
        return tids[mask]

    def items(self) -> Iterator[tuple[float, float, TupleId]]:
        """Iterate entries in key order."""
        return iter(self._entries)

    @property
    def num_entries(self) -> int:
        """Number of entries stored."""
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Analytic size in bytes; charged as a B+-tree with 16-byte keys."""
        two_key_model = SizeModel(
            key_bytes=2 * self._size_model.key_bytes,
            pointer_bytes=self._size_model.pointer_bytes,
            node_header_bytes=self._size_model.node_header_bytes,
            hash_entry_overhead_bytes=self._size_model.hash_entry_overhead_bytes,
            leaf_model_bytes=self._size_model.leaf_model_bytes,
        )
        return two_key_model.btree_bytes(len(self._entries), self._node_capacity)


class CompositeSecondaryIndex:
    """Engine mechanism wrapping a :class:`CompositeIndex` on two columns.

    Exposes the same maintenance surface as the single-column mechanisms
    (``insert``/``insert_many``/``delete``/``update`` row notifications from
    the database facade) plus the planner's pair access path: one probe that
    answers a conjunctive predicate on ``(leading_column, second_column)``
    exactly, with no false positives.

    Args:
        table: The base table.
        leading_column: Leading key column of the composite index.
        second_column: Second key column.
        primary_index: Primary index, required for logical pointers.
        pointer_scheme: Tuple-identifier scheme stored in the index.
        size_model: Analytic memory model.
    """

    def __init__(self, table, leading_column: str, second_column: str,
                 primary_index=None,
                 pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                 size_model: SizeModel = DEFAULT_SIZE_MODEL) -> None:
        if pointer_scheme.needs_primary_lookup and primary_index is None:
            raise StorageError(
                "logical pointers require a primary index to resolve locations"
            )
        self.table = table
        self.leading_column = leading_column
        self.second_column = second_column
        self.primary_index = primary_index
        self.pointer_scheme = pointer_scheme
        self.index = CompositeIndex(size_model=size_model)

    # ----------------------------------------------------------- construction

    def build(self) -> None:
        """Bulk-load the composite index from the current table contents."""
        slots, leading, second = self.table.project(
            [self.leading_column, self.second_column]
        )
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            tids = slots
        else:
            tids = self.table.values(slots, self.table.schema.primary_key)
        self.index.insert_many(leading.tolist(), second.tolist(),
                               tids.tolist())

    # ------------------------------------------------------ planner interface

    def candidate_tids_pair(self, leading_range: KeyRange,
                            second_range: KeyRange, breakdown) -> np.ndarray:
        """Candidate tids matching both ranges (exact; one array probe)."""
        started = time.perf_counter()
        tids = self.index.range_search_array(leading_range, second_range)
        breakdown.host_index_seconds += time.perf_counter() - started
        return tids

    def estimate_candidates(self, leading_range: KeyRange,
                            second_range: KeyRange, leading_stats,
                            second_stats) -> float:
        """Estimated candidates under predicate independence (exact index)."""
        rows = leading_stats.row_count
        return (rows * leading_stats.selectivity(leading_range)
                * second_stats.selectivity(second_range))

    # ------------------------------------------------------------ maintenance

    def insert(self, row: dict, location: int) -> None:
        """Index a newly inserted row."""
        self.index.insert(float(row[self.leading_column]),
                          float(row[self.second_column]),
                          self._tid_for(row, location))

    def insert_many(self, columns: dict, locations: np.ndarray) -> None:
        """Batched :meth:`insert`: one sorted merge into the entry list."""
        leading = np.asarray(columns[self.leading_column], dtype=np.float64)
        second = np.asarray(columns[self.second_column], dtype=np.float64)
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            tids = np.asarray(locations, dtype=np.int64)
        else:
            tids = np.asarray(columns[self.table.schema.primary_key],
                              dtype=np.float64)
        self.index.insert_many(leading.tolist(), second.tolist(),
                               tids.tolist())

    def delete(self, row: dict, location: int) -> None:
        """Remove the index entry for a deleted row."""
        self.index.delete(float(row[self.leading_column]),
                          float(row[self.second_column]),
                          self._tid_for(row, location))

    def update(self, old_row: dict, new_row: dict, location: int) -> None:
        """Re-index a row whose key columns may have changed."""
        self.delete(old_row, location)
        self.insert(new_row, location)

    def _tid_for(self, row: dict, location: int) -> TupleId:
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return location
        return row[self.table.schema.primary_key]

    # ------------------------------------------------------------- accounting

    def memory_bytes(self) -> int:
        """Analytic size of the composite index in bytes."""
        return self.index.memory_bytes()
