"""The lookup workflow every mechanism shares (paper Section 5, Figure 3).

A lookup is four steps: (1) translate the predicate (TRS-Tree, CM bucket
map, or nothing for a complete index), (2) probe the host index for
candidate tuple identifiers, (3) resolve logical pointers through the
primary index, (4) validate against the base table.  Steps 1–2 differ per
mechanism and are what a mechanism implements (``candidate_tids`` /
``candidate_tids_many`` on :class:`SecondaryMechanism`).  Steps 3–4 —
resolve, validate *every* predicate, sort/dedup, book candidates and
results — are identical for all of them and live here exactly twice:

* :func:`finish_lookup` for one request (one tid array), and
* :func:`finish_lookup_segmented` for a request batch (one segmented
  ``(values, offsets)`` array, see ``repro.segments``).

Both stay because each wins a workload: a request through
``execute_many([r])`` costs 6.5–7.5x one through ``execute(r)`` (fixed cost
of the segmented kernels; docs/architecture.md, "Why two and not one"),
while a 256-request batch through per-request single pipelines loses by a
similar factor (~5x on the ``range_linear`` stream).  The caller's batch
size selects between them.  Both resolve through the same structure:
``Index.search_many`` (the single tail) and ``search_many_segmented`` (the
batch tail) probe the primary index's key array with one ``searchsorted``
and one gather (``index/ordered.py``).  Their one caller is the planner's executor
(``repro.engine.executor``): every read of a mechanism — planned, or
forced through ``Database.query_with`` / ``query_with_many`` — runs there,
under the database's read epoch.
"""

# repro: hot-module
# (repro.analysis REP004: no per-element Python loops over arrays here)

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.index.base import Index, KeyRange, KeyRanges
from repro.segments import (
    segmented_filter,
    segmented_sort,
    segmented_unique,
    sorted_unique,
)
from repro.storage.identifiers import PointerScheme
from repro.storage.table import Table


@dataclass
class LookupBreakdown:
    """Per-phase accounting of one or more Hermit/baseline lookups.

    Time is wall-clock seconds accumulated per phase; the counters allow the
    harness to compute false-positive ratios (Figure 17).
    """

    trs_seconds: float = 0.0
    host_index_seconds: float = 0.0
    primary_index_seconds: float = 0.0
    base_table_seconds: float = 0.0
    candidates: int = 0
    results: int = 0
    lookups: int = 0

    @property
    def total_seconds(self) -> float:
        """Total time across all phases."""
        return (
            self.trs_seconds + self.host_index_seconds
            + self.primary_index_seconds + self.base_table_seconds
        )

    @property
    def false_positive_ratio(self) -> float:
        """Fraction of candidate tuples that validation rejected."""
        if self.candidates == 0:
            return 0.0
        return (self.candidates - self.results) / self.candidates

    def fractions(self) -> dict[str, float]:
        """Phase shares of the total time, keyed like the paper's legends."""
        total = self.total_seconds
        if total == 0:
            return {"TRS-Tree": 0.0, "Host Index": 0.0,
                    "Primary Index": 0.0, "Base Table": 0.0}
        return {
            "TRS-Tree": self.trs_seconds / total,
            "Host Index": self.host_index_seconds / total,
            "Primary Index": self.primary_index_seconds / total,
            "Base Table": self.base_table_seconds / total,
        }

    def merge(self, other: "LookupBreakdown") -> None:
        """Accumulate another breakdown into this one."""
        self.trs_seconds += other.trs_seconds
        self.host_index_seconds += other.host_index_seconds
        self.primary_index_seconds += other.primary_index_seconds
        self.base_table_seconds += other.base_table_seconds
        self.candidates += other.candidates
        self.results += other.results
        self.lookups += other.lookups


# --------------------------------------------------------- Step 3: resolve

def resolve_tids_array(tids: np.ndarray, pointer_scheme: PointerScheme,
                       primary_index: Index | None,
                       breakdown: LookupBreakdown) -> np.ndarray:
    """Map one tid array to row locations (lookup Step 3, batched).

    Physical pointers *are* locations; logical pointers are resolved through
    one batched primary-index probe (``search_many``: one ``searchsorted``
    and one gather over the index's arrays), charged to the breakdown's
    primary-index phase.
    """
    if pointer_scheme is PointerScheme.PHYSICAL:
        return tids.astype(np.int64, copy=False)
    assert primary_index is not None
    started = time.perf_counter()
    locations = np.asarray(primary_index.search_many(tids), dtype=np.int64)
    breakdown.primary_index_seconds += time.perf_counter() - started
    return locations


def resolve_tids_segmented(tids: np.ndarray, offsets: np.ndarray,
                           pointer_scheme: PointerScheme,
                           primary_index: Index | None,
                           breakdown: LookupBreakdown,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Segmented variant of :func:`resolve_tids_array`.

    ``(tids, offsets)`` is the concatenated candidate array of a whole query
    batch.  Physical pointers keep the segmentation as-is; logical pointers
    resolve every candidate through *one* ``search_many_segmented``
    primary-index pass, which rebuilds the offsets (a primary key may
    resolve to zero or several locations).
    """
    if pointer_scheme is PointerScheme.PHYSICAL:
        return tids.astype(np.int64, copy=False), offsets
    assert primary_index is not None
    started = time.perf_counter()
    locations, offsets = primary_index.search_many_segmented(tids, offsets)
    locations = np.asarray(locations, dtype=np.int64)
    breakdown.primary_index_seconds += time.perf_counter() - started
    return locations, offsets


# ------------------------------------------- Steps 3–4: the two lookup tails

def finish_lookup(table: Table, merged: dict[str, KeyRange],
                  tids: np.ndarray, pointer_scheme: PointerScheme,
                  primary_index: Index | None, breakdown: LookupBreakdown,
                  unique: bool) -> np.ndarray:
    """Single-request tail: candidate tids in, sorted int64 locations out.

    Resolves pointers once, validates every predicate of ``merged`` against
    the base table (dropping dead rows and mechanism false positives),
    books ``candidates`` / ``results`` on ``breakdown`` and returns the
    matches ascending and duplicate-free.

    Args:
        merged: One key range per predicate column; *all* of them are
            enforced here, whichever produced the candidates.
        unique: The candidates are known duplicate-free.  Under physical
            pointers (tids are the locations) a plain sort then replaces
            the dedup; under logical pointers duplicate primary keys could
            still resolve to the same location, so the dedup always runs.
    """
    locations = resolve_tids_array(tids, pointer_scheme, primary_index,
                                   breakdown)
    breakdown.candidates += locations.size

    started = time.perf_counter()
    for column, key_range in merged.items():
        if locations.size == 0:
            break
        locations = table.filter_in_range(locations, column,
                                          key_range.low, key_range.high)
    breakdown.base_table_seconds += time.perf_counter() - started

    breakdown.results += locations.size
    if unique and pointer_scheme is PointerScheme.PHYSICAL:
        return np.sort(locations)
    return sorted_unique(locations)


def finish_lookup_segmented(table: Table, bounds: dict[str, KeyRanges],
                            tids: np.ndarray, offsets: np.ndarray,
                            pointer_scheme: PointerScheme,
                            primary_index: Index | None,
                            breakdown: LookupBreakdown,
                            unique: bool, ordered: bool,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Batch tail: segmented candidate tids in, segmented locations out.

    The segmented counterpart of :func:`finish_lookup`: one pointer
    resolution pass, one validation mask per predicate column over the
    concatenated candidates of the whole batch (every candidate is checked
    against *its own query's* bounds: the column's ``lows`` / ``highs``
    arrays repeated over the segment sizes) and one final segmented sort
    or dedup.  Every output segment is sorted ascending and duplicate-free.

    Args:
        bounds: Predicate column → the batch's ranges on it, one per query
            (segment); *all* columns are enforced here, whichever produced
            the candidates.
        unique: As for :func:`finish_lookup`, per segment.
        ordered: Every candidate segment already arrives ascending.  With
            ``unique`` under physical pointers the final sort is then
            skipped — validation only filters, so order survives.
    """
    locations, offsets = resolve_tids_segmented(
        tids, offsets, pointer_scheme, primary_index, breakdown
    )
    breakdown.candidates += int(locations.size)

    started = time.perf_counter()
    if locations.size:
        sizes = np.diff(offsets)
        mask: np.ndarray | None = None
        for column, ranges in bounds.items():
            column_mask = table.in_range_mask(
                locations, column,
                np.repeat(ranges.lows, sizes), np.repeat(ranges.highs, sizes),
            )
            if mask is None:
                mask = column_mask
            else:
                mask &= column_mask
        if mask is not None:
            locations, offsets = segmented_filter(locations, offsets, mask)
    breakdown.base_table_seconds += time.perf_counter() - started

    breakdown.results += int(locations.size)
    locations = locations.astype(np.int64, copy=False)
    if unique and pointer_scheme is PointerScheme.PHYSICAL:
        if not ordered:
            locations, offsets = segmented_sort(locations, offsets)
        return locations, offsets
    return segmented_unique(locations, offsets)


# ------------------------------------------------------- the mechanism base

class SecondaryMechanism:
    """Candidate-generation contract and pointer-scheme plumbing of every
    mechanism.

    :class:`~repro.core.hermit.HermitIndex`,
    :class:`~repro.baselines.secondary.BaselineSecondaryIndex` and
    :class:`~repro.baselines.correlation_maps.CorrelationMap` derive from
    this.  A mechanism implements candidate generation
    (``candidate_tids(key_range, breakdown)`` and
    ``candidate_tids_many(ranges, breakdown)``, both returning
    duplicate-free tids), ``estimate_candidates`` and its maintenance
    methods (``insert_many``, ``delete_many``, ``update_many``, each one
    batch of column-oriented rows); the executor adds one of the two
    tails.

    Args:
        table: The base table the mechanism serves.
        target_column: Column the queries filter on.
        primary_index: Index from primary-key value to row location;
            required when ``pointer_scheme`` is LOGICAL.
        pointer_scheme: Tuple-identifier scheme of the index entries.
    """

    def __init__(self, table: Table, target_column: str,
                 primary_index: Index | None,
                 pointer_scheme: PointerScheme) -> None:
        if pointer_scheme.needs_primary_lookup and primary_index is None:
            raise QueryError(
                "logical pointers require a primary index to resolve locations"
            )
        self.table = table
        self.target_column = target_column
        self.primary_index = primary_index
        self.pointer_scheme = pointer_scheme
        self.cumulative = LookupBreakdown()

    # Planner contract: does candidate_tids_many sort every segment?
    sorted_candidates = False

    def candidate_tids(self, key_range: KeyRange,
                       breakdown: LookupBreakdown) -> np.ndarray:
        """Steps 1–2 for one predicate: duplicate-free candidate tids."""
        raise NotImplementedError

    def candidate_tids_many(self, ranges: KeyRanges,
                            breakdown: LookupBreakdown,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Steps 1–2 for a predicate batch, as one segmented array."""
        raise NotImplementedError

    # ------------------------------------------------------------ maintenance

    def update_many(self, old_columns: dict, new_columns: dict,
                    locations: np.ndarray) -> None:
        """Re-index rows changed in place, given their stored values before
        and after: the old entries go (``delete_many``), the new arrive."""
        self.delete_many(old_columns, locations)
        self.insert_many(new_columns, locations)

    # ------------------------------------------------- pointer-scheme plumbing

    def _tids_for_batch(self, columns: dict,
                        locations: np.ndarray) -> np.ndarray:
        """The tids of column-oriented rows: their locations, or their
        primary-key values."""
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return np.asarray(locations, dtype=np.int64)
        return np.asarray(columns[self.table.schema.primary_key],
                          dtype=np.float64)

    def _tids_for_slots(self, slots: np.ndarray) -> np.ndarray:
        """Tids of rows already stored at ``slots`` (index construction)."""
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return slots
        return self.table.values(slots, self.table.schema.primary_key)
