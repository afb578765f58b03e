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
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.lookup import LookupBreakdown, SecondaryMechanism
from repro.index.base import Index, KeyRange, KeyRanges
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
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

