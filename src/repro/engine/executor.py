"""Query execution: plan pipelines and the legacy single-predicate helpers.

The executor half of the planner subsystem runs a
:class:`~repro.engine.planner.Plan` with the array-native pipeline the
mechanisms already use internally: every access path returns one candidate
tid ndarray, the arrays are intersected with ``np.intersect1d``, pointer
resolution happens once on the intersection (batched primary-index probe
under logical pointers), and a single vectorized base-table validation pass
enforces *every* predicate of the query — including the ones no path was
executed for — and drops dead rows and mechanism false positives.

The pre-planner helpers (:func:`full_scan`, :func:`execute_with_index`,
:func:`choose_index`) are kept: the first two serve ``query_with`` and the
correctness tests' reference semantics, and :func:`choose_index` is the cost
model's default-statistics ranking in miniature.
"""

# repro: hot-module
# (repro.analysis REP004: no per-element Python loops over arrays here)

from __future__ import annotations

import time

import numpy as np

from repro.core.hermit import (
    LookupBreakdown,
    resolve_tids_array,
    resolve_tids_segmented,
)
from repro.engine.access_path import column_bounds
from repro.engine.catalog import IndexEntry, IndexMethod, TableEntry
from repro.engine.planner import Plan, PlannedQueryResult
from repro.engine.query import QueryResult, RangePredicate
from repro.index.base import Index, KeyRange
from repro.segments import (
    segmented_filter,
    segmented_intersect,
    segmented_sort,
    segmented_unique,
    sorted_unique,
    split_segments,
)
from repro.storage.identifiers import PointerScheme
from repro.storage.table import Table


def execute_plan(plan: Plan, entry: TableEntry,
                 pointer_scheme: PointerScheme,
                 primary_index: Index | None = None) -> PlannedQueryResult:
    """Run a plan: execute paths, intersect, resolve once, validate once."""
    breakdown = LookupBreakdown(lookups=1)
    if plan.unsatisfiable or not plan.paths:
        return PlannedQueryResult(np.empty(0, dtype=np.int64), breakdown, plan)

    # Single-path plans (the overwhelmingly common case) never touch
    # np.intersect1d; multi-path plans intersect with assume_unique
    # whenever both operands come from paths that guarantee unique tids —
    # every current path does (see AccessPath.produces_unique_tids), which
    # skips intersect1d's internal per-operand dedup sorts.
    tids = plan.paths[0].execute(breakdown)
    unique = plan.paths[0].produces_unique_tids
    for path in plan.paths[1:]:
        if tids.size == 0:
            break
        tids = np.intersect1d(tids, path.execute(breakdown),
                              assume_unique=unique
                              and path.produces_unique_tids)
        unique = True

    if plan.paths[0].produces_locations:
        # Full scans emit row locations that already satisfy every predicate
        # over live rows only — no pointer resolution, no re-validation; the
        # mask scan yields ascending unique slots, so the result needs no
        # final sort either.
        locations = np.asarray(tids, dtype=np.int64)
        breakdown.candidates += int(locations.size)
        breakdown.results += int(locations.size)
        _observe_lookup(plan, breakdown)
        return PlannedQueryResult(locations, breakdown, plan)

    locations = resolve_tids_array(np.asarray(tids), pointer_scheme,
                                   primary_index, breakdown)
    breakdown.candidates += int(locations.size)

    started = time.perf_counter()
    for column, key_range in plan.merged.items():
        if locations.size == 0:
            break
        locations = entry.table.filter_in_range(
            locations, column, key_range.low, key_range.high
        )
    breakdown.base_table_seconds += time.perf_counter() - started

    breakdown.results += int(locations.size)
    locations = locations.astype(np.int64, copy=False)
    if unique and pointer_scheme is PointerScheme.PHYSICAL:
        # Physical tids are the locations, so uniqueness survives
        # resolution and a plain sort replaces the dedup.
        locations = np.sort(locations)
    else:
        locations = sorted_unique(locations)
    _observe_lookup(plan, breakdown)
    return PlannedQueryResult(locations, breakdown, plan)


def execute_plan_many(plan: Plan, merged_list: list[dict[str, KeyRange]],
                      entry: TableEntry, pointer_scheme: PointerScheme,
                      primary_index: Index | None = None,
                      ) -> tuple[list[np.ndarray], LookupBreakdown]:
    """Run one plan template over a whole query batch in segmented passes.

    The batched counterpart of :func:`execute_plan` for a
    :class:`~repro.engine.planner.PlanGroup`: every per-query intermediate
    lives in one ``(values, offsets)`` segmented array (``repro.segments``),
    so a batch of B same-shape queries costs a constant number of
    Python-level array passes — one ``execute_many`` per path, one
    segmented intersection per extra path, one segmented pointer
    resolution, one segmented validation mask per predicate column and one
    final segmented sort (skipped when the candidates arrived sorted and
    nothing since reordered them) — instead of B full pipelines.

    Returns the per-query location arrays (input order) plus the one
    breakdown accumulated across the batch.
    """
    breakdown = LookupBreakdown(lookups=len(merged_list))
    if plan.unsatisfiable or not plan.paths:
        empty = np.empty(0, dtype=np.int64)
        return [empty] * len(merged_list), breakdown

    tids, offsets = plan.paths[0].execute_many(merged_list, breakdown)
    unique = plan.paths[0].produces_unique_tids
    ordered = plan.paths[0].produces_sorted_tids
    for path in plan.paths[1:]:
        if tids.size == 0:
            break
        other, other_offsets = path.execute_many(merged_list, breakdown)
        tids, offsets = segmented_intersect(
            tids, offsets, other, other_offsets,
            assume_unique=unique and path.produces_unique_tids,
        )
        # An intersection comes out of one sort pass, ascending per segment.
        unique = ordered = True

    if plan.paths[0].produces_locations:
        locations = tids.astype(np.int64, copy=False)
        breakdown.candidates += int(locations.size)
    else:
        locations, offsets = resolve_tids_segmented(
            tids, offsets, pointer_scheme, primary_index, breakdown
        )
        breakdown.candidates += int(locations.size)

        started = time.perf_counter()
        if locations.size:
            sizes = np.diff(offsets)
            mask: np.ndarray | None = None
            for column in plan.merged:
                lows, highs = column_bounds(merged_list, column)
                column_mask = entry.table.in_range_mask(
                    locations, column,
                    np.repeat(lows, sizes), np.repeat(highs, sizes),
                )
                mask = (column_mask if mask is None
                        else mask & column_mask)
            if mask is not None:
                locations, offsets = segmented_filter(locations, offsets,
                                                      mask)
        breakdown.base_table_seconds += time.perf_counter() - started

    breakdown.results += int(locations.size)
    locations = locations.astype(np.int64, copy=False)
    if unique and (plan.paths[0].produces_locations
                   or pointer_scheme is PointerScheme.PHYSICAL):
        # The tids are the locations and segmented_filter keeps their
        # order, so candidates that arrived sorted are the sorted result.
        if not ordered:
            locations, offsets = segmented_sort(locations, offsets)
    else:
        # Logical pointers: duplicate primary keys would survive resolution
        # as duplicate locations, so dedup exactly like the scalar path.
        locations, offsets = segmented_unique(locations, offsets)
    _observe_lookup(plan, breakdown)
    return split_segments(locations, offsets), breakdown


def _observe_lookup(plan: Plan, breakdown: LookupBreakdown) -> None:
    """Feed a single-mechanism plan's outcome back into the mechanism.

    Mechanisms keep a cumulative breakdown whose observed false-positive
    ratio drives their planner cost estimates (``estimate_candidates``);
    the legacy ``lookup_range`` path records it itself, so planned queries
    must too or the planner would price e.g. a leaky Hermit index at the
    default ratio forever.  Only unambiguous plans observe: exactly one
    mechanism path covering *every* predicate column — with a validate-only
    predicate in the plan, rows it rejects would otherwise be booked as the
    mechanism's false positives and corrupt the ratio.
    """
    if len(plan.paths) != 1:
        return
    path = plan.paths[0]
    if set(path.columns) != set(plan.merged):
        return
    entry = getattr(path, "entry", None)
    if entry is None:
        return
    cumulative = getattr(entry.mechanism, "cumulative", None)
    if cumulative is not None:
        cumulative.merge(breakdown)


def full_scan(table: Table, predicate: RangePredicate) -> QueryResult:
    """Answer a predicate by scanning the whole table (the no-index fallback)."""
    slots, values = table.project([predicate.column])
    mask = (values >= predicate.low) & (values <= predicate.high)
    locations = [int(slot) for slot in np.asarray(slots)[mask]]
    breakdown = LookupBreakdown(lookups=1, candidates=len(locations),
                                results=len(locations))
    return QueryResult(locations=sorted(locations), breakdown=breakdown,
                       used_index=None)


def execute_with_index(entry: IndexEntry, predicate: RangePredicate) -> QueryResult:
    """Execute a predicate through a catalogued index mechanism."""
    result = entry.mechanism.lookup_range(predicate.low, predicate.high)
    # Mechanisms return either an int64 array (vectorized path) or a list
    # (scalar reference path); normalise to a sorted list of Python ints.
    locations = np.sort(np.asarray(result.locations, dtype=np.int64)).tolist()
    return QueryResult(
        locations=locations,
        breakdown=result.breakdown,
        used_index=entry.name,
    )


# Default-statistics ranking of the mechanisms, cheapest first.  This is the
# cost model collapsed to the no-information case: a sorted-column probe is a
# zero-copy slice, a B+-tree is exact but pays Python-level leaf walks, and
# the correlation mechanisms add false positives on top (Hermit fewer than
# CM's bucket expansion).  An exact-column host index therefore always beats
# a Hermit mechanism for point lookups, fixing the old tie-breaking that
# ranked unknown methods arbitrarily.
_DEFAULT_METHOD_RANK = {
    IndexMethod.SORTED_COLUMN: 0,
    IndexMethod.BTREE: 1,
    IndexMethod.HERMIT: 2,
    IndexMethod.CORRELATION_MAP: 3,
}


def choose_index(entries: list[IndexEntry]) -> IndexEntry | None:
    """Pick the index used to serve a single-column predicate.

    This is the planner's default-statistics preference order (see
    ``_DEFAULT_METHOD_RANK``); the planner proper refines it with per-column
    statistics and per-mechanism candidate estimates.  Methods outside the
    ranking (e.g. COMPOSITE, which cannot serve a single predicate alone)
    are never chosen ahead of a ranked one.
    """
    ranked = [entry for entry in entries
              if entry.method in _DEFAULT_METHOD_RANK]
    if not ranked:
        return None
    return min(ranked, key=lambda entry: _DEFAULT_METHOD_RANK[entry.method])
