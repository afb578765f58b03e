"""The cost-based query planner.

The planner turns a :class:`~repro.engine.query.ConjunctiveQuery` into a
:class:`Plan`: an ordered list of :class:`~repro.engine.access_path.AccessPath`
objects to execute and intersect, chosen by the cost model from the catalog's
per-column statistics.  Planning proceeds in four steps:

1. **Normalise** — merge same-column predicates (:meth:`ConjunctiveQuery.merged`);
   a contradiction short-circuits to an unsatisfiable plan.
2. **Enumerate** — for every predicate column, build one
   :class:`~repro.engine.access_path.MechanismPath` per catalogued index on
   that column, and always one
   :class:`~repro.engine.access_path.FullScanPath` covering the whole
   conjunction.
3. **Select** — keep the cheapest path per column, pick the *driver* path
   minimising ``cost + downstream_per_candidate * candidates``, and fall
   back to the full scan when the driver does not beat it.
4. **Intersect or validate** — every additional selected path is executed and
   intersected (``np.intersect1d``) only when its execution cost undercuts the
   downstream work it saves on the driver's candidates (under logical
   pointers each candidate costs a primary-index descent, so intersection
   pays off much earlier than under physical pointers); predicates whose
   paths are not worth executing are enforced by the executor's final batched
   validation pass instead.

The executor half lives in :mod:`repro.engine.executor`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.lookup import LookupBreakdown
from repro.engine.access_path import (
    INTERSECT_MARGIN,
    VALIDATE_PER_CANDIDATE,
    AccessPath,
    FullScanPath,
    MechanismPath,
    downstream_per_candidate,
)
from repro.engine.catalog import Catalog, TableEntry
from repro.engine.query import ConjunctiveQuery
from repro.index.base import KeyRange, KeyRanges
from repro.storage.identifiers import PointerScheme


@dataclass
class Plan:
    """The planner's output: which paths to execute, and why.

    Attributes:
        table_name: Table the plan reads.
        query: The normalised input query.
        merged: One intersected key range per predicate column (empty when
            unsatisfiable).
        paths: Access paths to execute, driver first; their candidate tid
            arrays are intersected in order.  Plans of one cached shape
            share the template's path objects (paths keep no ranges).
        estimated_cost: Cost-model total for the chosen paths plus the
            downstream per-candidate work on the driver's candidates.
        unsatisfiable: True when same-column predicates contradict — the
            executor returns an empty result without touching any path.
        used_index: Name of the first path's index that has one (the
            driver's, unless it is a full scan), the populating index of a
            ``cached`` marker, or None.
        feedback: The cumulative breakdown of the one mechanism this plan's
            outcomes feed, or None.  A mechanism's observed false-positive
            ratio drives its cost estimates (``estimate_candidates``), so
            the executor merges every run of a plan into it — or the
            planner would price e.g. a leaky Hermit index at the default
            ratio forever.  Only unambiguous plans feed one: exactly one
            mechanism path covering *every* predicate column (rows a
            validate-only predicate rejects would otherwise be booked as the
            mechanism's false positives).  Paths and columns fix it, so it is
            derived once per template, not per request.
    """

    table_name: str
    query: ConjunctiveQuery
    merged: dict[str, KeyRange] = field(default_factory=dict)
    paths: list[AccessPath] = field(default_factory=list)
    estimated_cost: float = 0.0
    unsatisfiable: bool = False
    # Snapshot of the planner's cumulative cache counters, taken by
    # ``Database.explain`` (None on executed plans and on plans that bypassed
    # the cache, e.g. unsatisfiable ones) — the observability hook that lets
    # a workload verify its plans actually amortise.
    cache_stats: "PlannerCacheStats | None" = None
    # Marker for queries served by the epoch-keyed result cache
    # (``repro.cache``): a cached "plan" has no paths — the stored location
    # array is returned without planning or execution — but still reports
    # the index that populated the entry.  ``Database.explain`` returns one
    # when the query would currently be answered from cache.
    cached: bool = False
    cached_used_index: str | None = None
    used_index: str | None = field(default=None, init=False, repr=False,
                                   compare=False)
    feedback: LookupBreakdown | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = [path.entry for path in self.paths
                   if getattr(path, "entry", None) is not None]
        self.used_index = (self.cached_used_index if self.cached
                           else entries[0].name if entries else None)
        if len(self.paths) == 1 and entries and (
                set(self.paths[0].columns) == set(self.merged)):
            self.feedback = getattr(entries[0].mechanism, "cumulative", None)

    def _bound(self, query: ConjunctiveQuery,
               merged: dict[str, KeyRange]) -> "Plan":
        """This template as one request's plan: the template's paths,
        price and feedback with the request's query and ranges, copied
        rather than constructed, so nothing is re-derived per request."""
        plan = object.__new__(Plan)
        state = self.__dict__.copy()
        state["query"] = query
        state["merged"] = merged
        state["cache_stats"] = None
        plan.__dict__ = state
        return plan

    @property
    def is_full_scan(self) -> bool:
        """Whether the plan reads the base table directly."""
        return any(isinstance(path, FullScanPath) for path in self.paths)

    def describe(self) -> str:
        """Multi-line plan explanation (the ``EXPLAIN`` output)."""
        if self.cached:
            via = (f"index {self.cached_used_index!r}"
                   if self.cached_used_index is not None else "a full scan")
            return (f"plan for {self.table_name}: result cache hit — the "
                    f"stored locations (populated via {via}) are returned "
                    f"without planning or execution")
        if self.unsatisfiable:
            return (f"plan for {self.table_name}: unsatisfiable "
                    f"(contradictory predicates)")
        lines = [f"plan for {self.table_name} "
                 f"(estimated cost {self.estimated_cost:.0f}):"]
        for position, path in enumerate(self.paths):
            role = "drive" if position == 0 else "intersect"
            lines.append(f"  {role}: {path.describe()}")
        executed = {column for path in self.paths for column in path.columns}
        validated = [column for column in self.merged if column not in executed]
        columns = ", ".join(self.merged)
        suffix = (f" (+ validate-only: {', '.join(validated)})"
                  if validated else "")
        lines.append(f"  validate: base table on [{columns}]{suffix}")
        if self.cache_stats is not None:
            stats = self.cache_stats
            lines.append(f"  plan cache: hits={stats.hits} "
                         f"misses={stats.misses} replays={stats.replays}")
        return "\n".join(lines)


def _selectivity_bucket(selectivity: float) -> int:
    """Quantise a selectivity to a power-of-two bucket for plan caching."""
    if selectivity <= 0.0:
        return -64
    return max(-64, min(0, int(math.log2(selectivity))))


def _selectivity_bucket_array(selectivities: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_selectivity_bucket` for the batch planner.

    Matches the scalar function exactly: ``int()`` truncates towards zero,
    which is what ``astype(int64)`` does to the ``log2`` values too.
    """
    buckets = np.full(selectivities.size, -64, dtype=np.int64)
    positive = selectivities > 0.0
    if positive.any():
        logs = np.log2(selectivities[positive]).astype(np.int64)
        buckets[positive] = np.clip(logs, -64, 0)
    return buckets


# A cached plan is replayed at most this many times before a full replan.
# Mechanism cost estimates improve as queries execute (the executor feeds
# observed false-positive ratios back into the mechanisms), and none of the
# cache-invalidation signals sees that feedback — bounding replays keeps
# the amortised planning cost near zero while guaranteeing a plan priced on
# stale estimates is reconsidered within a bounded number of queries.
_MAX_PLAN_REPLAYS = 64

# A cached plan also expires after this many committed write epochs against
# its table (TableEntry.data_epoch, bumped once per insert_many / update /
# delete).  The 2x row-count window catches bulk growth but is blind to
# mutations that leave the count roughly unchanged — a steady
# update/delete+insert churn can shift a column's min/max (and therefore
# every selectivity the plan was priced on) without ever tripping it.
_MAX_EPOCH_DRIFT = 32

# Group key of the batch planner's one no-path group.
_UNSATISFIABLE = ("__unsatisfiable__",)


@dataclass(frozen=True)
class PlannerCacheStats:
    """Cumulative plan-cache counters (the planner's observability surface).

    Attributes:
        hits: Queries served by replaying a valid cached plan.
        misses: Queries that required fresh cost-based planning (cold cache,
            catalog/row-count invalidation, or the replay bound expiring).
        replays: Queries that reused a plan template without planning —
            cache hits plus the members of batched plan groups beyond each
            group's representative, so ``replays - hits`` is exactly the
            planning work the batch API amortised away.
    """

    hits: int = 0
    misses: int = 0
    replays: int = 0


@dataclass
class PlanGroup:
    """One batch-planning group: queries that share a plan template.

    Attributes:
        plan: The template chosen (or replayed) for the group's
            representative query; its paths are executed once over
            ``bounds``.
        indices: Positions of the group's queries in the input batch, an
            int64 array.
        bounds: Predicate column → the members' merged ranges on it, one
            :class:`~repro.index.base.KeyRanges` aligned with ``indices``
            (empty for the unsatisfiable group).
    """

    plan: Plan
    indices: np.ndarray
    bounds: dict[str, KeyRanges]


@dataclass
class _CachedPlan:
    """A plan template replayed while its planning inputs stay stable."""

    plan: Plan
    catalog_version: int
    row_count: int
    data_epoch: int = 0
    replays: int = 0


class Planner:
    """Cost-based single-table planner over the catalog.

    Planning a query costs a few dozen microseconds of pure Python, which
    would dwarf a point probe if paid on every call — so chosen plans are
    cached per (table, predicate-column set) and replayed while the index
    set is unchanged (catalog version), the table has not grown or shrunk
    past 2x, the table has committed fewer than ``_MAX_EPOCH_DRIFT`` write
    epochs since the plan was priced, and the query's per-column
    selectivity stays in the same power-of-two bucket.  Any of those
    changing — or a cached plan hitting its replay bound (mechanism cost
    estimates improve as observed false-positive ratios accumulate) —
    replans from scratch.

    Single-column *point* requests additionally skip the per-call
    selectivity bucketing: every point on a column estimates to the same
    ~1/n selectivity, so the planner keeps a direct (table, column) →
    cache-slot pointer and replays the cached plan after only the cheap
    freshness checks.  Point probes are dispatch-dominated (the probe
    itself touches a handful of rows), which made the stats lookup +
    ``log2`` bucketing a measurable fraction of the whole query; the fast
    path exists to close that gap.

    Args:
        catalog: The catalog providing index entries and column statistics.
        pointer_scheme: Tuple-identifier scheme of the database — it sets the
            per-candidate downstream weight (resolution is free under
            physical pointers, a primary-index descent under logical ones).
    """

    def __init__(
            self, catalog: Catalog,
            pointer_scheme: PointerScheme = PointerScheme.PHYSICAL) -> None:
        self.catalog = catalog
        self.pointer_scheme = pointer_scheme
        self._cache: dict[tuple, _CachedPlan] = {}
        # (table, column) -> generic cache key of the slot that last served a
        # point probe on that column.  The point fast path follows this
        # pointer into ``_cache`` directly, skipping the stats lookup and
        # selectivity bucketing; the slot itself (freshness checks, replay
        # bound, counters) is shared with the generic path, so the fast path
        # cannot outlive any invalidation signal.
        self._point_keys: dict[tuple[str, str], tuple] = {}
        # The plan-cache counters (see PlannerCacheStats), kept per table
        # so a multi-table workload can see which table's plans amortise;
        # the totals are their sums.
        self._hits: Counter[str] = Counter()
        self._misses: Counter[str] = Counter()
        self._replays: Counter[str] = Counter()

    def cache_info(self) -> PlannerCacheStats:
        """Snapshot of the cumulative plan-cache counters (all tables)."""
        return PlannerCacheStats(hits=sum(self._hits.values()),
                                 misses=sum(self._misses.values()),
                                 replays=sum(self._replays.values()))

    def table_cache_info(self) -> dict[str, PlannerCacheStats]:
        """Per-table snapshot of the plan-cache counters.

        Tables appear once they have been planned for; the values sum to
        :meth:`cache_info` across tables.
        """
        tables = sorted(set(self._hits) | set(self._misses)
                        | set(self._replays))
        return {
            table: PlannerCacheStats(hits=self._hits[table],
                                     misses=self._misses[table],
                                     replays=self._replays[table])
            for table in tables
        }

    def cache_clear(self) -> None:
        """Drop every cached plan template and reset all counters.

        The next query on any table replans from scratch — the hook for
        tests and operators that changed something the freshness checks
        cannot see.
        """
        self._cache.clear()
        self._point_keys.clear()
        self._hits.clear()
        self._misses.clear()
        self._replays.clear()

    def _is_fresh(self, cached: _CachedPlan, entry: TableEntry) -> bool:
        """Whether a cached plan may still be replayed against ``entry``.

        Fresh means: under its replay bound, chosen from the current index
        set, the table's live row count within 2x of the count it was priced
        at, and fewer than ``_MAX_EPOCH_DRIFT`` write epochs committed since.
        """
        row_count = entry.table.num_rows
        return (cached.replays < _MAX_PLAN_REPLAYS
                and cached.catalog_version == self.catalog.version
                and cached.row_count <= 2 * row_count
                and row_count <= 2 * cached.row_count
                and entry.data_epoch - cached.data_epoch <= _MAX_EPOCH_DRIFT)

    def _replay(self, cached: _CachedPlan, query: ConjunctiveQuery,
                merged: dict[str, KeyRange]) -> Plan:
        """Book one cache hit; the request's plan shares the template's paths."""
        template = cached.plan
        table_name = template.table_name
        self._hits[table_name] += 1
        self._replays[table_name] += 1
        cached.replays += 1
        return template._bound(query, merged)

    def plan(self, table_name: str, query: ConjunctiveQuery) -> Plan:
        """Choose the cheapest access-path combination for ``query``."""
        entry = self.catalog.table_entry(table_name)

        # Point fast path: single-column point probes replay straight off
        # the (table, column) pointer — no stats lookup, no log2 bucketing.
        # All points on a column share one slot even when their generic
        # bucket would differ (in- vs out-of-domain values): the plan shape
        # is identical either way and the executor's validation pass
        # enforces correctness, so collapsing them trades nothing.
        predicates = query.predicates
        is_point = len(predicates) == 1 and predicates[0].is_point
        if is_point:
            point_key = self._point_keys.get(
                (table_name, predicates[0].column))
            if point_key is not None:
                cached = self._cache.get(point_key)
                if cached is not None and self._is_fresh(cached, entry):
                    return self._replay(
                        cached, query,
                        {predicates[0].column: predicates[0].key_range},
                    )

        merged = query.merged()
        if merged is None:
            return Plan(table_name=table_name, query=query, unsatisfiable=True)

        stats, buckets = {}, ()
        for column, key_range in merged.items():
            stats[column] = column_stats = self.catalog.column_stats(
                table_name, column)
            buckets += (
                _selectivity_bucket(column_stats.selectivity(key_range)),)
        # The bucket tuple is part of the key (not just a validity check):
        # a workload alternating shapes on the same columns — point probes
        # interleaved with ranges — must hit two cache slots, not evict one.
        cache_key = (table_name, tuple(merged), buckets)
        cached = self._cache.get(cache_key)
        if cached is not None and self._is_fresh(cached, entry):
            return self._replay(cached, query, merged)

        self._misses[table_name] += 1
        plan = self._plan_fresh(table_name, entry, query, merged, stats)
        self._cache[cache_key] = _CachedPlan(
            plan=plan, catalog_version=self.catalog.version,
            row_count=entry.table.num_rows,
            data_epoch=entry.data_epoch,
        )
        if is_point:
            self._point_keys[(table_name, predicates[0].column)] = cache_key
        return plan

    def plan_many(self, table_name: str,
                  queries: "list[ConjunctiveQuery]") -> list[PlanGroup]:
        """Group a query batch by plan shape, planning once per group.

        Queries land in the same group — and share one plan template —
        when they agree on (predicate-column set, selectivity bucket per
        column); only each group's first query goes through :meth:`plan`
        (cache and counters included), every further member is a pure
        ``replays`` increment, booked once per group.  Group members also
        advance the cached plan's replay bound so mechanism-estimate
        feedback still forces a replan within a bounded number of
        *queries*, not batches.  Unsatisfiable queries collapse into one
        no-path group.

        Grouping itself is batched: queries on one column — a single
        predicate, or a conjunction whose ``merged()`` keeps one column —
        have their bounds read into two arrays per column, bucketed with one
        vectorized selectivity pass and split into groups by bucket with
        array passes; only conjunctions over several columns walk
        ``merged()`` into a shape key per query, and each of their groups
        turns its dicts into bound arrays once.
        """
        # (group key, representative query, positions, bounds) per group.
        shapes: list[tuple[tuple, ConjunctiveQuery, np.ndarray,
                           dict[str, KeyRanges]]] = []
        single: dict[str, tuple[list[int], list]] = {}
        multi: dict[tuple, tuple[list[int], list[dict[str, KeyRange]]]] = {}
        # repro: ignore[REP004] -- queries are objects; reading each one's
        # predicate shape is the per-request boundary before array passes
        for position, query in enumerate(queries):
            predicates = query.predicates
            if len(predicates) == 1:
                column, bound = predicates[0].column, predicates[0]
            else:
                merged = query.merged()
                if merged is None or len(merged) > 1:
                    key = _UNSATISFIABLE if merged is None else (
                        tuple(merged), tuple(
                            _selectivity_bucket(
                                self.catalog.column_stats(table_name, column)
                                .selectivity(key_range))
                            for column, key_range in merged.items()))
                    members, merged_ranges = multi.setdefault(key, ([], []))
                    members.append(position)
                    merged_ranges.append(merged)
                    continue
                (column, bound), = merged.items()
            members, bounds = single.setdefault(column, ([], []))
            members.append(position)
            bounds.append(bound)
        for key, (members, merged_ranges) in multi.items():
            columns = () if key == _UNSATISFIABLE else key[0]
            shapes.append((key, queries[members[0]],
                           np.asarray(members, dtype=np.int64),
                           {column: KeyRanges.of([merged[column]
                                                  for merged in merged_ranges])
                            for column in columns}))

        for column, (members, bounds) in single.items():
            ranges = KeyRanges.of(bounds)
            lows, highs = ranges.lows, ranges.highs
            positions = np.asarray(members, dtype=np.int64)
            buckets = _selectivity_bucket_array(
                self.catalog.column_stats(table_name, column)
                .selectivity_array(lows, highs))
            # One run of ``order`` per bucket, its members in input order;
            # buckets in order of their first member.
            order = np.argsort(buckets, kind="stable")
            ordered = buckets[order]
            edges = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1])
                          + 1).tolist(), order.size]
            for first, start, stop in sorted(
                    (int(order[start]), start, stop)
                    for start, stop in zip(edges[:-1], edges[1:])):
                taken = order[start:stop]
                shapes.append((((column,), (int(ordered[start]),)),
                               queries[members[first]], positions[taken],
                               {column: KeyRanges(lows[taken], highs[taken])}))

        groups = []
        for key, query, positions, bounds in shapes:
            if key == _UNSATISFIABLE:
                plan = Plan(table_name=table_name, query=query,
                            unsatisfiable=True)
            else:
                plan = self.plan(table_name, query)
                # Unsatisfiable queries never had a plan template to reuse,
                # so they do not count as amortised planning work.
                self._book_group_replays(table_name, key, positions.size - 1)
            groups.append(PlanGroup(plan=plan, indices=positions,
                                    bounds=bounds))
        return groups

    def _book_group_replays(self, table_name: str, key: tuple,
                            members: int) -> None:
        """Count a group's members beyond its representative as replays."""
        if members <= 0:
            return
        self._replays[table_name] += members
        cached = self._cache.get((table_name,) + key)
        if cached is not None:
            cached.replays += members

    def _plan_fresh(self, table_name: str, entry: TableEntry,
                    query: ConjunctiveQuery, merged: dict[str, KeyRange],
                    stats: dict) -> Plan:
        """Full cost-based planning (the cache-miss path)."""
        scan = self._scan_path(entry, merged, stats)
        selected = self._cheapest_path_per_column(table_name, merged, stats)
        row_count = entry.table.num_rows
        downstream = downstream_per_candidate(self.pointer_scheme, row_count)
        if not selected:
            return self._scan_plan(table_name, query, merged, scan)

        driver = min(selected, key=lambda path: path.estimated_cost()
                     + downstream * path.estimated_candidates())
        driver_total = (driver.estimated_cost()
                        + downstream * driver.estimated_candidates())
        scan_total = (scan.estimated_cost()
                      + VALIDATE_PER_CANDIDATE * scan.estimated_candidates())
        if driver_total >= scan_total:
            return self._scan_plan(table_name, query, merged, scan)

        # An extra path is worth executing only when probing it costs clearly
        # less than the downstream work it can strip from the driver's
        # candidates (the margin guards against estimate errors).
        budget = INTERSECT_MARGIN * downstream * driver.estimated_candidates()
        extras = sorted(
            (path for path in selected
             if path is not driver and path.estimated_cost() < budget),
            key=lambda path: path.estimated_cost(),
        )
        paths = [driver] + extras
        total = sum(path.estimated_cost() for path in paths) + downstream * min(
            path.estimated_candidates() for path in paths
        )
        return Plan(table_name=table_name, query=query, merged=merged,
                    paths=paths, estimated_cost=total)

    # ---------------------------------------------------------------- private

    def _scan_path(self, entry: TableEntry, merged: dict[str, KeyRange],
                   stats: dict) -> FullScanPath:
        scan = FullScanPath(entry.table, tuple(merged))
        matches = float(entry.table.num_rows)
        for column, key_range in merged.items():
            matches *= stats[column].selectivity(key_range)
        scan.bind_candidate_estimate(matches)
        return scan

    def _scan_plan(self, table_name: str, query: ConjunctiveQuery,
                   merged: dict[str, KeyRange], scan: FullScanPath) -> Plan:
        # A scan produces locations directly, so its candidates skip pointer
        # resolution and pay the validation touch only.
        total = (scan.estimated_cost()
                 + VALIDATE_PER_CANDIDATE * scan.estimated_candidates())
        return Plan(table_name=table_name, query=query, merged=merged,
                    paths=[scan], estimated_cost=total)

    def _cheapest_path_per_column(self, table_name: str,
                                  merged: dict[str, KeyRange],
                                  stats: dict) -> list[AccessPath]:
        """Cheapest mechanism path of each indexed predicate column."""
        selected = []
        for column, key_range in merged.items():
            paths = [MechanismPath(index_entry, key_range, stats[column])
                     for index_entry in self.catalog.indexes_on_column(
                         table_name, column)]
            if paths:
                selected.append(min(paths,
                                    key=lambda path: path.estimated_cost()))
        return selected
