"""Conventional secondary indexing mechanism (the paper's "Baseline").

This is the comparator used in every throughput and memory experiment: a
complete index on the target column — an
:class:`~repro.index.ordered.OrderedIndex`, priced as the paper's B+-tree —
whose entries are tuple identifiers under either pointer scheme.  Lookups
go secondary index → (primary index) → base table, and the per-phase
breakdown mirrors Figures 11 and 15.

The class implements only candidate generation (one array probe of the
backing index, or one segmented probe per batch) and maintenance.  Pointer
resolution and base-table validation are the shared tails of
:mod:`repro.core.lookup`, run by the engine's executor after every
mechanism alike, so the Hermit-vs-Baseline comparison (``Database``
reads, forced by index name with ``query_with`` / ``query_with_many``)
measures the mechanisms through the same pipeline the engine serves.

:class:`CompositeSecondaryIndex` is the two-column complete index: the same
maintenance surface over a :class:`~repro.index.composite.CompositeIndex`,
probed by the planner's pair access path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.lookup import LookupBreakdown, SecondaryMechanism
from repro.index.base import Index, KeyRange, KeyRanges
from repro.index.composite import CompositeIndex
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.memory import sorted_array_bytes
from repro.storage.table import Table


class BaselineSecondaryIndex(SecondaryMechanism):
    """A complete secondary index on ``target_column``.

    Exposes the same candidate/maintenance surface as
    :class:`~repro.core.hermit.HermitIndex` so the engine can serve a
    predicate through either mechanism.

    Args:
        table: The base table.
        target_column: Column the index is built on.
        primary_index: Index from primary-key value to row location; required
            for the logical pointer scheme.
        pointer_scheme: Tuple-identifier scheme stored in the index.
    """

    def __init__(self, table: Table, target_column: str,
                 primary_index: Index | None = None,
                 pointer_scheme: PointerScheme = PointerScheme.PHYSICAL) -> None:
        super().__init__(table, target_column, primary_index, pointer_scheme)
        self.index = OrderedIndex()

    # ----------------------------------------------------------- construction

    def build(self) -> None:
        """Load the (empty) backing index from the current table contents.

        A NULL (NaN) key matches no predicate and is never stored, here or
        by any write below.
        """
        slots, targets = self.table.project([self.target_column])
        known = ~np.isnan(targets)
        if not known.all():
            slots, targets = slots[known], targets[known]
        self.index.insert_many(targets, self._tids_for_slots(slots))

    # --------------------------------------------------- candidate generation

    def candidate_tids(self, key_range: KeyRange,
                       breakdown: LookupBreakdown) -> np.ndarray:
        """Candidate tids: one array probe of the backing index.

        A complete index produces no false positives, so its candidates are
        exactly the matching tids; the tail still touches the base table
        once per match (liveness plus one column gather — Figures 11/15
        count this as "Base Table").
        """
        started = time.perf_counter()
        tids = self.index.range_search_array(key_range)
        breakdown.host_index_seconds += time.perf_counter() - started
        return tids

    def candidate_tids_many(self, ranges: KeyRanges,
                            breakdown: LookupBreakdown,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batch variant of :meth:`candidate_tids`.

        Delegates straight to the backing index's ``range_search_segmented``
        — one probe pass per batch (two ``searchsorted`` and one gather over
        the ordered index's arrays).  Returns a ``(values, offsets)``
        segmented array (see ``repro.segments``).
        """
        started = time.perf_counter()
        values, offsets = self.index.range_search_segmented(ranges)
        breakdown.host_index_seconds += time.perf_counter() - started
        return values, offsets

    def estimate_candidates(self, key_range: KeyRange, stats) -> float:
        """Estimated candidate count: exact (a complete index has no FPs)."""
        return stats.row_count * stats.selectivity(key_range)

    # ------------------------------------------------------------ maintenance

    def insert_many(self, columns: dict, locations: np.ndarray) -> None:
        """Index newly inserted rows: one batch write into the ordered index.

        Args:
            columns: Column name → aligned value sequence for the new rows.
            locations: Row locations of the new rows, aligned with the
                columns.
        """
        self.index.insert_many(*self._entries(columns, locations))

    def delete_many(self, columns: dict, locations: np.ndarray) -> None:
        """Remove the deleted rows' entries: one batch delete."""
        self.index.delete_many(*self._entries(columns, locations))

    def _entries(self, columns: dict, locations: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """The rows' ``(keys, tids)`` entries, NULL keys left out."""
        keys = np.asarray(columns[self.target_column], dtype=np.float64)
        tids = self._tids_for_batch(columns, locations)
        known = ~np.isnan(keys)
        if not known.all():
            keys, tids = keys[known], tids[known]
        return keys, tids

    # ------------------------------------------------------------- accounting

    def memory_bytes(self) -> int:
        """Analytic size: the paper's B+-tree over the same entries."""
        return self.index.memory_bytes()


class SortedColumnSecondaryIndex(BaselineSecondaryIndex):
    """The same complete index, priced as packed sorted arrays
    (``IndexMethod.SORTED_COLUMN``)."""

    def memory_bytes(self) -> int:
        """Analytic size: one key and one pointer per entry."""
        return sorted_array_bytes(self.index.num_entries)


class CompositeSecondaryIndex(SecondaryMechanism):
    """Engine mechanism wrapping a :class:`CompositeIndex` on two columns.

    Exposes the same maintenance surface as the single-column mechanisms
    (``insert_many``/``delete_many``/``update_many`` batch notifications
    from the database facade) plus the planner's pair access path: one
    probe that answers a conjunctive predicate on ``(leading_column,
    second_column)`` exactly, with no false positives.  It has no single-predicate candidate
    generation, so ``Database.query_with`` refuses it.

    Args:
        table: The base table.
        leading_column: Leading key column of the composite index.
        second_column: Second key column.
        primary_index: Primary index, required for logical pointers.
        pointer_scheme: Tuple-identifier scheme stored in the index.
    """

    def __init__(
            self, table: Table, leading_column: str, second_column: str,
            primary_index: Index | None = None,
            pointer_scheme: PointerScheme = PointerScheme.PHYSICAL) -> None:
        super().__init__(table, leading_column, primary_index, pointer_scheme)
        self.leading_column = leading_column
        self.second_column = second_column
        self.index = CompositeIndex()

    # ----------------------------------------------------------- construction

    def build(self) -> None:
        """Bulk-load the composite index from the current table contents."""
        slots, leading, second = self.table.project(
            [self.leading_column, self.second_column]
        )
        self.index.insert_many(leading, second, self._tids_for_slots(slots))

    # ------------------------------------------------------ planner interface

    def candidate_tids_pair(self, leading_range: KeyRange,
                            second_range: KeyRange,
                            breakdown: LookupBreakdown) -> np.ndarray:
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

    def insert_many(self, columns: dict, locations: np.ndarray) -> None:
        """Index newly inserted rows: one sorted merge into the entry list."""
        leading = np.asarray(columns[self.leading_column], dtype=np.float64)
        second = np.asarray(columns[self.second_column], dtype=np.float64)
        self.index.insert_many(leading, second,
                               self._tids_for_batch(columns, locations))

    def delete_many(self, columns: dict, locations: np.ndarray) -> None:
        """Remove the deleted rows' entries: one batch delete."""
        self.index.delete_many(columns[self.leading_column],
                               columns[self.second_column],
                               self._tids_for_batch(columns, locations))

    # ------------------------------------------------------------- accounting

    def memory_bytes(self) -> int:
        """Analytic size of the composite index in bytes."""
        return self.index.memory_bytes()
