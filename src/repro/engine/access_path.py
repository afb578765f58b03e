"""Access paths: the uniform unit the planner chooses between.

An :class:`AccessPath` is one concrete way to produce *candidate tuple
identifiers* for part of a query — a full table scan, a probe of a complete
host index (an ordered B+-tree), a Hermit mechanism lookup, or a
Correlation-Map lookup.  Every path obeys the same array-native contract:

* ``execute(merged, breakdown) -> np.ndarray`` returns the candidate tids
  (row locations under physical pointers, primary-key values under logical
  pointers) of one request's merged ranges as one numpy array, and
  ``execute_many(bounds, breakdown)`` those of a request batch — ``bounds``
  maps each predicate column to a :class:`~repro.index.base.KeyRanges`, one
  range per query — as one segmented array, both charging their work to
  the shared per-phase breakdown, and
* ``estimated_cost()`` / ``estimated_candidates()`` expose the cost model's
  view of the path so the planner can compare paths of different kinds.

A path is a *template*: it keeps which index (or table) it reads, the columns
it covers and the two estimates it was priced at, and takes the ranges to
probe as an argument — so the plan cache hands the same path objects to every
request of a shape.

Candidates may contain false positives (Hermit/CM) and dead rows; the
executor removes both in a single batched base-table validation pass after
intersecting the candidate sets, so paths never validate individually.

Costs are measured in abstract *row-touch units* (the cost of moving one
entry through a Python-level index structure).  The formulas, with ``n`` the
live row count, ``k`` the mechanism's estimated candidate count and
``L = log2(n + 1)``:

=====================  =====================================================
Path                   Estimated cost
=====================  =====================================================
full scan              ``n * SCAN_PER_ROW``
B+-tree index          ``DESCENT_COST * L + k``
Hermit mechanism       ``MECHANISM_OVERHEAD * L + k``  (k inflated by the
                       observed false-positive ratio)
Correlation Map        ``MECHANISM_OVERHEAD * L + k``  (k inflated by bucket
                       expansion and the host-bucket over-fetch)
=====================  =====================================================

Downstream of every path, each surviving candidate still pays pointer
resolution (a primary-index probe under logical pointers, free under
physical pointers) plus the vectorized validation touch — the planner uses
that per-candidate downstream weight both to pick the driver path and to
decide whether intersecting an additional path pays for itself.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from repro.core.lookup import LookupBreakdown
from repro.engine.catalog import ColumnStats, IndexEntry, IndexMethod
from repro.index.base import KeyRange, KeyRanges
from repro.segments import run_indices, segmented_filter
from repro.storage.identifiers import PointerScheme
from repro.storage.table import Table


# Constants of the planner's cost model, in row-touch units.  They encode
# one fact measured on this codebase — vectorized validation costs a
# fraction of a Python-level index touch — plus one deliberate bias:
# SCAN_PER_ROW is kept at parity with the per-candidate index cost so an
# index is chosen whenever one covers a predicate, matching the pre-planner
# executor's behaviour.
SCAN_PER_ROW = 1.0
# Per log2(n) level of one BTREE range probe: two searchsorted over the
# ordered index's key array (two more over its record of writes since the
# last fold, when it holds one; index/ordered.py).  The value was set for a
# pointer tree's root-to-leaf descent and is kept; recalibration is
# ROADMAP item 10.
DESCENT_COST = 2.0
BTREE_PER_CANDIDATE = 1.0
MECHANISM_OVERHEAD = 2.0
VALIDATE_PER_CANDIDATE = 0.3
# Per-candidate primary-index resolution under logical pointers, per
# log2(n) level.  Deliberately below DESCENT_COST: resolution is one
# search_many / search_many_segmented over all candidates — a single
# searchsorted and gather over the primary index's key array (C-level
# bisects, which is what this constant has always priced).
RESOLVE_PER_LEVEL = 0.5
# Safety margin on the intersection decision: an extra path must undercut
# *half* the downstream work it could save, so estimate errors do not push
# the planner into intersections that lose in practice.
INTERSECT_MARGIN = 0.5


def downstream_per_candidate(pointer_scheme: PointerScheme,
                             row_count: int) -> float:
    """Per-candidate cost paid after a path: resolution + validation.

    Under logical pointers every candidate tid costs one (batched)
    primary-index descent before it can be validated; under physical
    pointers the tid *is* the location and only the vectorized validation
    touch remains.  This asymmetry is why the planner intersects far more
    eagerly under logical pointers.
    """
    cost = VALIDATE_PER_CANDIDATE
    if pointer_scheme.needs_primary_lookup:
        cost += RESOLVE_PER_LEVEL * math.log2(row_count + 2)
    return cost


class AccessPath:
    """One way to produce candidate tids for (part of) a query.

    Subclasses price themselves from their predicate range(s) and statistics
    at construction — precomputing the two estimates, so the planner compares
    plain floats — and keep no range: the ranges to probe arrive with each
    :meth:`execute` / :meth:`execute_many` call.

    Attributes:
        columns: Predicate columns this path covers (the executor validates
            *all* query predicates regardless; covered columns only matter
            for plan selection).
        produces_locations: True when :meth:`execute` returns row locations
            directly instead of pointer-scheme tids (full scans), letting
            the executor skip pointer resolution.
        produces_unique_tids: True when :meth:`execute` guarantees a
            duplicate-free candidate array.  Every concrete path does —
            full scans emit distinct live slots, a complete B+-tree holds
            one entry per row, and the correlation mechanisms (Hermit, CM)
            end their candidate generation with an explicit dedup — which
            lets the executor pass ``assume_unique=True`` to its
            ``np.intersect1d`` calls and replace the final dedup with a
            plain sort.  A future path without the guarantee sets this
            False and the executor falls back to the safe kernels.
        produces_sorted_tids: True when :meth:`execute_many` additionally
            guarantees every segment ascending.  Under physical pointers
            (tids are locations, validation only filters) the batch
            executor then skips its final sort.  Only a mechanism that sorts
            while deduplicating claims it, and only where the skip applies
            (Hermit under physical pointers, via ``sorted_candidates``).
            No complete index claims it: its answer is in key order only
            within its main run and within its record of writes, not
            across the two (``repro.index.ordered``).
    """

    columns: tuple[str, ...] = ()
    produces_locations = False
    produces_unique_tids = True
    produces_sorted_tids = False

    def estimated_candidates(self) -> float:
        """Cost-model estimate of the candidate count this path returns."""
        raise NotImplementedError

    def estimated_cost(self) -> float:
        """Cost-model estimate of executing this path, in row-touch units."""
        raise NotImplementedError

    def execute(self, merged: dict[str, KeyRange],
                breakdown: LookupBreakdown) -> np.ndarray:
        """Produce the candidate tid array of one request.

        ``merged`` is the request's merged predicate mapping; the path picks
        out the columns it covers and charges phases to ``breakdown``.
        """
        raise NotImplementedError

    def execute_many(self, bounds: dict[str, KeyRanges],
                     breakdown: LookupBreakdown,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Produce candidate tids for a whole query batch, segmented.

        ``bounds`` maps every predicate column of the batch's plan group to
        its ranges, one per query — the batch shape of :meth:`execute`'s
        ``merged``; the path reads the bound arrays of the columns it
        covers.  Returns ``(values, offsets)`` where query ``i`` owns
        ``values[offsets[i]:offsets[i + 1]]`` (see ``repro.segments``), so
        the executor can intersect, resolve and validate the whole batch in
        O(1) array passes.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description for plan explanations."""
        raise NotImplementedError


class FullScanPath(AccessPath):
    """Scan the live rows once, masking every predicate in one pass.

    Unlike the index paths, a scan produces *row locations* rather than
    pointer-scheme tids: the planner never intersects a scan with another
    path (a scan already applies every predicate), so the executor can skip
    pointer resolution entirely for scan plans — under logical pointers that
    is the whole point of scanning.
    """

    produces_locations = True

    def __init__(self, table: Table, columns: Sequence[str]) -> None:
        self.table = table
        self.columns = tuple(columns)
        self._cost = table.num_rows * SCAN_PER_ROW
        # A scan applies every predicate while it reads, so its candidates
        # are already the (live) matches; the planner refines this estimate
        # from the column statistics via bind_candidate_estimate.
        self._candidates = float(table.num_rows)

    def bind_candidate_estimate(self, candidates: float) -> None:
        """Let the planner refine the match estimate from column stats."""
        self._candidates = candidates

    def estimated_candidates(self) -> float:
        return self._candidates

    def estimated_cost(self) -> float:
        return self._cost

    def execute(self, merged: dict[str, KeyRange],
                breakdown: LookupBreakdown) -> np.ndarray:
        started = time.perf_counter()
        projected = self.table.project(list(self.columns))
        slots = projected[0]
        mask = np.ones(slots.shape, dtype=bool)
        for column, values in zip(self.columns, projected[1:]):
            key_range = merged[column]
            mask &= (values >= key_range.low) & (values <= key_range.high)
        matching = slots[mask]
        breakdown.base_table_seconds += time.perf_counter() - started
        return matching

    def execute_many(self, bounds: dict[str, KeyRanges],
                     breakdown: LookupBreakdown,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Scan once for the whole batch: sort the driving column, slice per query.

        The live rows are projected once and sorted on the first predicate
        column; every query's matching run is then located with one
        vectorized ``searchsorted`` pair and gathered with a single
        multi-arange fancy index.  Remaining predicate columns are masked
        per element against their own query's bounds (``np.repeat`` of the
        column's bound arrays over the run sizes) — B scans collapse into
        one O(n log n) sort plus O(total matches) array work.
        """
        started = time.perf_counter()
        driving = bounds[self.columns[0]]
        projected = self.table.project(list(self.columns))
        slots = projected[0]
        order = np.argsort(projected[1], kind="stable")
        sorted_values = projected[1][order]
        starts = np.searchsorted(sorted_values, driving.lows, side="left")
        stops = np.searchsorted(sorted_values, driving.highs, side="right")
        indices, offsets = run_indices(starts, stops)
        # Gather through the matched positions only — order[indices] is
        # O(total matches), while slots[order] would permute the whole
        # table once per column.
        matched = order[indices]
        candidates = slots[matched]
        if len(self.columns) > 1 and candidates.size:
            sizes = np.diff(offsets)
            mask = np.ones(candidates.size, dtype=bool)
            for column, values in zip(self.columns[1:], projected[2:]):
                gathered = values[matched]
                ranges = bounds[column]
                mask &= ((gathered >= np.repeat(ranges.lows, sizes))
                         & (gathered <= np.repeat(ranges.highs, sizes)))
            candidates, offsets = segmented_filter(candidates, offsets, mask)
        breakdown.base_table_seconds += time.perf_counter() - started
        return candidates, offsets

    def describe(self) -> str:
        columns = ", ".join(self.columns)
        return f"full-scan({columns}) cost={self._cost:.0f}"


class MechanismPath(AccessPath):
    """Probe one catalogued single-column index mechanism.

    Covers complete B+-tree indexes, Hermit mechanisms and Correlation
    Maps — anything exposing ``candidate_tids(key_range, breakdown)`` and
    ``estimate_candidates(key_range, stats)``.
    """

    def __init__(self, entry: IndexEntry, key_range: KeyRange,
                 stats: ColumnStats) -> None:
        self.entry = entry
        self.columns = (entry.column,)
        self._candidates = float(
            entry.mechanism.estimate_candidates(key_range, stats)
        )
        levels = math.log2(stats.row_count + 2)
        if entry.method is IndexMethod.BTREE:
            self._cost = (DESCENT_COST * levels
                          + BTREE_PER_CANDIDATE * self._candidates)
        else:  # HERMIT / CORRELATION_MAP: translation + host-index gathers
            self._cost = (MECHANISM_OVERHEAD * levels
                          + BTREE_PER_CANDIDATE * self._candidates)

    @property
    def produces_sorted_tids(self) -> bool:
        return self.entry.mechanism.sorted_candidates

    def estimated_candidates(self) -> float:
        return self._candidates

    def estimated_cost(self) -> float:
        return self._cost

    def execute(self, merged: dict[str, KeyRange],
                breakdown: LookupBreakdown) -> np.ndarray:
        return self.entry.mechanism.candidate_tids(merged[self.entry.column],
                                                   breakdown)

    def execute_many(self, bounds: dict[str, KeyRanges],
                     breakdown: LookupBreakdown,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Delegate the whole batch to the mechanism's segmented probe."""
        return self.entry.mechanism.candidate_tids_many(
            bounds[self.entry.column], breakdown)

    def describe(self) -> str:
        return (f"{self.entry.method.value}({self.entry.name} on "
                f"{self.entry.column}) cost={self._cost:.0f} "
                f"~candidates={self._candidates:.0f}")
