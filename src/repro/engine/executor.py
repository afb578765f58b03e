"""Query execution: run a plan's access paths, then one shared lookup tail.

The executor half of the planner subsystem runs a
:class:`~repro.engine.planner.Plan`: every access path returns candidate
tids (one ndarray for a single request, one segmented ``(values, offsets)``
array for a batch), extra paths are intersected, and the intersection goes
through the lookup tail every read shares (:mod:`repro.core.lookup`):
pointer resolution once, one vectorized base-table validation pass that
enforces *every* predicate of the query — including the ones no path was
executed for — and drops dead rows and mechanism false positives, then
sort/dedup.  :func:`execute_plan` ends in the single-request tail,
:func:`execute_plan_many` in the segmented one; full-scan plans skip the
tail because the scan already applied every predicate to live rows.
"""

# repro: hot-module
# (repro.analysis REP004: no per-element Python loops over arrays here)

from __future__ import annotations

import numpy as np

from repro.core.lookup import (
    LookupBreakdown,
    finish_lookup,
    finish_lookup_segmented,
)
from repro.engine.catalog import TableEntry
from repro.engine.planner import Plan, PlanGroup
from repro.index.base import Index
from repro.segments import segmented_intersect, segmented_sort, split_segments
from repro.storage.identifiers import PointerScheme


def execute_plan(plan: Plan, entry: TableEntry,
                 pointer_scheme: PointerScheme,
                 primary_index: Index | None = None,
                 ) -> tuple[np.ndarray, LookupBreakdown]:
    """Run a plan: execute paths, intersect, resolve once, validate once.

    Returns the sorted, duplicate-free int64 location array plus the
    breakdown of this one lookup — the single-request shape of what
    :func:`execute_plan_many` returns for a batch.
    """
    breakdown = LookupBreakdown(lookups=1)
    if plan.unsatisfiable or not plan.paths:
        return np.empty(0, dtype=np.int64), breakdown

    # Single-path plans (the overwhelmingly common case) never touch
    # np.intersect1d; multi-path plans intersect with assume_unique
    # whenever both operands come from paths that guarantee unique tids —
    # every current path does (see AccessPath.produces_unique_tids), which
    # skips intersect1d's internal per-operand dedup sorts.
    tids = plan.paths[0].execute(plan.merged, breakdown)
    unique = plan.paths[0].produces_unique_tids
    for path in plan.paths[1:]:
        if tids.size == 0:
            break
        tids = np.intersect1d(tids, path.execute(plan.merged, breakdown),
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
    else:
        locations = finish_lookup(entry.table, plan.merged, tids,
                                  pointer_scheme, primary_index, breakdown,
                                  unique)
    if plan.feedback is not None:
        plan.feedback.merge(breakdown)
    return locations, breakdown


def execute_plan_many(group: PlanGroup, entry: TableEntry,
                      pointer_scheme: PointerScheme,
                      primary_index: Index | None = None,
                      ) -> tuple[list[np.ndarray], LookupBreakdown]:
    """Run one plan group's template over its bounds in segmented passes.

    The batched counterpart of :func:`execute_plan` for a
    :class:`~repro.engine.planner.PlanGroup`: the group's ``bounds`` (one
    :class:`~repro.index.base.KeyRanges` per predicate column) go as they
    are to every path's ``execute_many`` and to the segmented tail, and
    every per-query intermediate lives in one ``(values, offsets)``
    segmented array (``repro.segments``), so a batch of B same-shape
    queries costs a constant number of Python-level array passes — one
    ``execute_many`` per path, one segmented intersection per extra path,
    one segmented pointer resolution, one segmented validation mask per
    predicate column and one final segmented sort (skipped when the
    candidates arrived sorted and nothing since reordered them) — instead
    of B full pipelines.

    Returns the per-query location arrays (in ``group.indices`` order)
    plus the one breakdown accumulated across the batch.
    """
    plan, bounds = group.plan, group.bounds
    count = len(group.indices)
    breakdown = LookupBreakdown(lookups=count)
    if plan.unsatisfiable or not plan.paths:
        empty = np.empty(0, dtype=np.int64)
        return [empty] * count, breakdown

    tids, offsets = plan.paths[0].execute_many(bounds, breakdown)
    unique = plan.paths[0].produces_unique_tids
    ordered = plan.paths[0].produces_sorted_tids
    for path in plan.paths[1:]:
        if tids.size == 0:
            break
        other, other_offsets = path.execute_many(bounds, breakdown)
        tids, offsets = segmented_intersect(
            tids, offsets, other, other_offsets,
            assume_unique=unique and path.produces_unique_tids,
        )
        # An intersection comes out of one sort pass, ascending per segment.
        unique = ordered = True

    if plan.paths[0].produces_locations:
        # Scan slots are distinct live matches (see execute_plan); only the
        # per-segment order is still the driving column's.
        locations = tids.astype(np.int64, copy=False)
        breakdown.candidates += int(locations.size)
        breakdown.results += int(locations.size)
        if not ordered:
            locations, offsets = segmented_sort(locations, offsets)
    else:
        locations, offsets = finish_lookup_segmented(
            entry.table, bounds, tids, offsets, pointer_scheme,
            primary_index, breakdown, unique, ordered,
        )
    if plan.feedback is not None:
        plan.feedback.merge(breakdown)
    return split_segments(locations, offsets), breakdown

