"""The Hermit secondary-indexing mechanism.

Hermit answers queries on a *target* column without a complete index on it.
It combines (Section 5):

1. a :class:`~repro.core.trs_tree.TRSTree` that translates the target-column
   predicate into host-column ranges plus outlier tuple identifiers,
2. the pre-existing *host index* on the correlated column,
3. an optional *primary index* probe when the RDBMS uses logical pointers, and
4. a *base-table validation* step that removes false positives.

The lookup pipeline is array-native end to end: host-index probes return
numpy tid arrays (:meth:`~repro.index.base.Index.range_search_many_array`),
candidate dedup is one in-place sort plus a neighbour mask
(:func:`~repro.segments.sorted_unique`, per segment on the batch path),
logical pointers are resolved
through one batched primary-index probe
(:meth:`~repro.index.base.Index.search_many`) and
base-table validation is a single fancy-index + boolean mask
(:meth:`~repro.storage.table.Table.filter_in_range`).  The original
object-at-a-time path is kept as :meth:`HermitIndex.lookup_range_scalar` —
it is the reference semantics for the equivalence property tests and the
"before" side of the hot-path benchmark.  :meth:`HermitIndex.lookup_range_many`
answers a whole predicate batch with amortised per-call overhead.

The class keeps a per-phase time breakdown for every lookup so the benchmark
harness can regenerate the breakdown figures (Figures 10, 14, 24b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.errors import QueryError
from repro.index.base import Index, KeyRange
from repro.segments import (
    interleave_segments,
    offsets_from_counts,
    segmented_sort,
    segmented_unique,
    sorted_unique,
    split_segments,
)
from repro.storage.identifiers import PointerScheme, TupleId
from repro.storage.memory import DEFAULT_SIZE_MODEL, SizeModel
from repro.storage.table import Table


def resolve_tids_array(tids: np.ndarray, pointer_scheme: PointerScheme,
                       primary_index: Index | None,
                       breakdown: "LookupBreakdown") -> np.ndarray:
    """Map one tid array to row locations (lookup Step 3, batched).

    Physical pointers *are* locations; logical pointers are resolved through
    one batched primary-index probe, charged to the breakdown's
    primary-index phase.  Shared by Hermit, the Baseline and CM so the
    pointer-resolution rules live in exactly one place.
    """
    if pointer_scheme is PointerScheme.PHYSICAL:
        return tids.astype(np.int64, copy=False)
    assert primary_index is not None
    started = time.perf_counter()
    locations = np.asarray(primary_index.search_many(tids), dtype=np.int64)
    breakdown.primary_index_seconds += time.perf_counter() - started
    return locations


def resolve_tids_many(tid_arrays: list[np.ndarray],
                      pointer_scheme: PointerScheme,
                      primary_index: Index | None,
                      breakdown: "LookupBreakdown") -> list[np.ndarray]:
    """Per-query variant of :func:`resolve_tids_array` for the batch APIs.

    The primary-index phase clock is read once around the whole batch, not
    twice per query — under logical pointers this is the dominant phase and
    per-query clock reads would be exactly the overhead the batch APIs
    exist to amortise.
    """
    if pointer_scheme is PointerScheme.PHYSICAL:
        return [tids.astype(np.int64, copy=False) for tids in tid_arrays]
    assert primary_index is not None
    started = time.perf_counter()
    locations = [np.asarray(primary_index.search_many(tids), dtype=np.int64)
                 for tids in tid_arrays]
    breakdown.primary_index_seconds += time.perf_counter() - started
    return locations


def resolve_tids_segmented(tids: np.ndarray, offsets: np.ndarray,
                           pointer_scheme: PointerScheme,
                           primary_index: Index | None,
                           breakdown: "LookupBreakdown",
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Segmented variant of :func:`resolve_tids_array` for the batch executor.

    ``(tids, offsets)`` is the concatenated candidate array of a whole query
    batch (see ``repro.segments``).  Physical pointers keep the segmentation
    as-is; logical pointers resolve every candidate through *one*
    ``search_many_segmented`` primary-index pass, which rebuilds the offsets
    (a primary key may resolve to zero or several locations).
    """
    if pointer_scheme is PointerScheme.PHYSICAL:
        return tids.astype(np.int64, copy=False), offsets
    assert primary_index is not None
    started = time.perf_counter()
    locations, offsets = primary_index.search_many_segmented(tids, offsets)
    locations = np.asarray(locations, dtype=np.int64)
    breakdown.primary_index_seconds += time.perf_counter() - started
    return locations, offsets


def regroup_host_probes(host_values: np.ndarray, host_offsets: np.ndarray,
                        ranges_per_query: "list[int] | np.ndarray",
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Fold per-*range* host-probe segments into per-*query* segments.

    The correlation mechanisms translate each query into several host
    ranges; probing the flattened range list with one
    ``range_search_segmented`` call returns per-range segments in
    query-major order, so regrouping is just summing each query's run
    sizes — no data movement.
    """
    ranges_per_query = np.asarray(ranges_per_query, dtype=np.int64)
    range_sizes = np.diff(host_offsets)
    owner = np.repeat(np.arange(ranges_per_query.size, dtype=np.int64),
                      ranges_per_query)
    counts = np.bincount(owner, weights=range_sizes,
                         minlength=ranges_per_query.size).astype(np.int64)
    return host_values, offsets_from_counts(counts)


def probe_host_ranges_segmented(
    host_index: Index, host_ranges_per_query: "list[list[KeyRange]]",
) -> tuple[np.ndarray, np.ndarray]:
    """One segmented host-index pass over per-query host-range lists.

    The shared middle of CM's ``candidate_tids_many`` (Hermit now rides
    ``TRSTree.lookup_many``'s pre-coalesced batch output instead): flatten
    the per-query range lists, probe them all with a single
    ``range_search_segmented`` call, and fold the per-range segments back
    into per-query ones.
    """
    all_ranges: list[KeyRange] = []
    counts: list[int] = []
    for host_ranges in host_ranges_per_query:
        all_ranges.extend(host_ranges)
        counts.append(len(host_ranges))
    host_values, host_offsets = host_index.range_search_segmented(all_ranges)
    return regroup_host_probes(host_values, host_offsets, counts)


def coerce_ranges(predicates) -> list[KeyRange]:
    """Normalise a predicate batch to ``KeyRange`` objects."""
    return [
        predicate if isinstance(predicate, KeyRange)
        else KeyRange(float(predicate[0]), float(predicate[1]))
        for predicate in predicates
    ]


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


@dataclass
class HermitLookupResult:
    """Result of one Hermit lookup.

    Attributes:
        locations: Matching row locations — an int64 numpy array on the
            vectorized path, a plain list on the scalar reference path.
            Both support ``len``, iteration, ``in`` and ``set(...)``.
        breakdown: Per-phase time accounting for this lookup.
    """

    locations: "np.ndarray | list[int]" = field(default_factory=list)
    breakdown: LookupBreakdown = field(default_factory=LookupBreakdown)


@dataclass
class BatchLookupResult:
    """Result of one batched lookup (``lookup_range_many``).

    Attributes:
        locations_per_query: One int64 location array per input predicate,
            in input order.
        breakdown: Per-phase time accounting accumulated over the batch
            (``lookups`` equals the number of predicates).
    """

    locations_per_query: list[np.ndarray] = field(default_factory=list)
    breakdown: LookupBreakdown = field(default_factory=LookupBreakdown)

    @property
    def total_results(self) -> int:
        """Total number of matching rows across the batch."""
        return sum(len(locations) for locations in self.locations_per_query)


def finish_batch_lookup(table: Table, target_column: str,
                        ranges: list[KeyRange],
                        tid_arrays: list[np.ndarray],
                        pointer_scheme: PointerScheme,
                        primary_index: Index | None,
                        breakdown: "LookupBreakdown",
                        cumulative: "LookupBreakdown") -> BatchLookupResult:
    """Shared tail of every mechanism's ``lookup_range_many``.

    After a mechanism has produced one candidate-tid array per predicate
    (each under its own phase accounting), the remaining pipeline is
    identical across Hermit, the Baseline and CM: batched pointer
    resolution, vectorized base-table validation, and candidate/result
    accounting merged into the cumulative breakdown.
    """
    locations = resolve_tids_many(tid_arrays, pointer_scheme, primary_index,
                                  breakdown)
    started = time.perf_counter()
    matches = [
        table.filter_in_range(locs, target_column,
                              predicate.low, predicate.high)
        for locs, predicate in zip(locations, ranges)
    ]
    breakdown.base_table_seconds += time.perf_counter() - started

    breakdown.candidates += sum(len(locs) for locs in locations)
    breakdown.results += sum(len(found) for found in matches)
    cumulative.merge(breakdown)
    return BatchLookupResult(locations_per_query=matches, breakdown=breakdown)


class HermitIndex:
    """A Hermit secondary "index" on ``target_column``.

    Args:
        table: The base table the index serves.
        target_column: Column the queries filter on (no complete index exists).
        host_column: Correlated column with an existing complete index.
        host_index: The complete index on ``host_column`` (keys are host
            values, entries are tuple identifiers under ``pointer_scheme``).
        primary_index: Index from primary-key value to row location; required
            when ``pointer_scheme`` is LOGICAL.
        pointer_scheme: Tuple-identifier scheme used by the indexes.
        config: TRS-Tree parameters.
        size_model: Analytic memory model.
    """

    def __init__(self, table: Table, target_column: str, host_column: str,
                 host_index: Index, primary_index: Index | None = None,
                 pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                 config: TRSTreeConfig = DEFAULT_CONFIG,
                 size_model: SizeModel = DEFAULT_SIZE_MODEL) -> None:
        if pointer_scheme.needs_primary_lookup and primary_index is None:
            raise QueryError(
                "logical pointers require a primary index to resolve locations"
            )
        self.table = table
        self.target_column = target_column
        self.host_column = host_column
        self.host_index = host_index
        self.primary_index = primary_index
        self.pointer_scheme = pointer_scheme
        self.trs_tree = TRSTree(config, size_model)
        self._size_model = size_model
        self.cumulative = LookupBreakdown()

    # ----------------------------------------------------------- construction

    def build(self, parallelism: int = 1) -> None:
        """Construct the TRS-Tree from the current table contents."""
        slots, targets, hosts = self.table.project(
            [self.target_column, self.host_column]
        )
        tids = self._tids_for_slots(slots)
        value_range = None
        if len(targets):
            value_range = KeyRange(float(np.min(targets)), float(np.max(targets)))
        self.trs_tree.build(targets, hosts, tids, value_range, parallelism)

    def _tids_for_slots(self, slots: np.ndarray) -> np.ndarray:
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return slots
        primary = self.table.schema.primary_key
        return self.table.values(slots, primary)

    # ----------------------------------------------------------------- lookup

    def lookup_range(self, low: float, high: float) -> HermitLookupResult:
        """Answer ``low <= target_column <= high`` exactly (Figure 3 workflow).

        Candidates stay numpy arrays through all four phases: host-index
        probe, sort-based dedup, batched primary-index resolution and one
        fancy-index base-table validation.
        """
        predicate = KeyRange(low, high)
        breakdown = LookupBreakdown(lookups=1)

        started = time.perf_counter()
        trs_result = self.trs_tree.lookup(predicate)
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        candidate_tids = self._candidate_array(trs_result)
        breakdown.host_index_seconds += time.perf_counter() - started

        locations = self._resolve_locations_array(candidate_tids, breakdown)

        started = time.perf_counter()
        matches = self.table.filter_in_range(
            locations, self.target_column, predicate.low, predicate.high
        )
        breakdown.base_table_seconds += time.perf_counter() - started

        breakdown.candidates += len(locations)
        breakdown.results += len(matches)
        self.cumulative.merge(breakdown)
        return HermitLookupResult(locations=matches, breakdown=breakdown)

    def lookup_range_many(self, predicates) -> BatchLookupResult:
        """Answer a batch of range predicates with amortised overhead.

        Args:
            predicates: A sequence of ``KeyRange`` objects or ``(low, high)``
                pairs.

        The per-phase clock is read once per phase per batch instead of
        twice per phase per query, and every per-query intermediate stays a
        numpy array; the bench harness uses this to measure the lookup path
        itself rather than Python call dispatch.
        """
        ranges = coerce_ranges(predicates)
        breakdown = LookupBreakdown(lookups=len(ranges))

        values, offsets = self.candidate_tids_many(ranges, breakdown)
        if not self.sorted_candidates:
            # The scalar path's per-query candidates are sorted ascending;
            # keep the batch identical.
            values, offsets = segmented_sort(values, offsets)
        candidates = split_segments(values, offsets)

        return finish_batch_lookup(
            self.table, self.target_column, ranges, candidates,
            self.pointer_scheme, self.primary_index, breakdown, self.cumulative,
        )

    def lookup_point(self, value: float) -> HermitLookupResult:
        """Answer ``target_column == value`` exactly."""
        return self.lookup_range(value, value)

    # ------------------------------------------------------ planner interface

    def candidate_tids(self, key_range: KeyRange,
                       breakdown: LookupBreakdown) -> np.ndarray:
        """Steps 1–2 of the lookup only: deduplicated candidate tids.

        This is the planner's access-path entry point: it stops *before*
        pointer resolution and base-table validation so the planner can
        intersect candidate tid sets from several access paths and pay
        resolution + validation once, on the intersection.  The candidate
        set may contain false positives; the planner's final validation
        pass removes them.
        """
        started = time.perf_counter()
        trs_result = self.trs_tree.lookup(key_range)
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        candidates = self._candidate_array(trs_result)
        breakdown.host_index_seconds += time.perf_counter() - started
        return candidates

    def candidate_tids_many(self, ranges: "list[KeyRange]",
                            breakdown: LookupBreakdown,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batch variant of :meth:`candidate_tids`.

        *One* TRS-Tree translation for the whole batch
        (:meth:`~repro.core.trs_tree.TRSTree.lookup_many` — the descent is
        vectorized across predicates, not run once per query), then *one*
        host-index pass over the flattened host ranges of the whole batch
        (``range_search_segmented``), per-range segments regrouped to
        per-query ones by summing run sizes — the candidate tids of B
        queries in a constant number of array passes.  Returns
        ``(values, offsets)``; see ``repro.segments``.

        Every segment comes back duplicate-free.  The TRS-Tree unions each
        query's host ranges into a disjoint cover (Algorithm 2) and a
        complete host index stores each row once, so the host probes alone
        cannot produce within-query duplicates; the
        :func:`~repro.segments.segmented_unique` dedup runs only when
        outlier tids were spliced in (an outlier's host value may also fall
        inside a probed range), and leaves the segments sorted.  Under
        physical pointers the segments are sorted in every case
        (:attr:`sorted_candidates`), which lets the executor skip its own
        final sort — the batch sorts its candidates once.  Under logical
        pointers the executor ends with a dedup that sorts anyway, so a
        batch without outliers is handed over in host-key order.
        """
        started = time.perf_counter()
        batch = self.trs_tree.lookup_many(ranges)
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        host_ranges = [
            KeyRange(low, high)
            for low, high in zip(batch.host_lows.tolist(),
                                 batch.host_highs.tolist())
        ]
        values, offsets = self.host_index.range_search_segmented(host_ranges)
        values, offsets = regroup_host_probes(values, offsets,
                                              batch.ranges_per_query())
        if batch.outlier_tids.size:
            values, offsets = interleave_segments(
                values, offsets, batch.outlier_tids, batch.outlier_offsets
            )
            values, offsets = segmented_unique(values, offsets)
        elif self.sorted_candidates:
            values, offsets = segmented_sort(values, offsets)
        breakdown.host_index_seconds += time.perf_counter() - started
        return values, offsets

    @property
    def sorted_candidates(self) -> bool:
        """Planner contract: does :meth:`candidate_tids_many` sort every segment?

        Only where the executor can use it: under physical pointers the
        sorted candidates are the sorted result.
        """
        return self.pointer_scheme is PointerScheme.PHYSICAL

    # Assumed candidate inflation before the first lookup provides an
    # observed false-positive ratio; deliberately worse than an exact host
    # index so default-stats planning prefers complete indexes over Hermit.
    DEFAULT_FALSE_POSITIVE_RATIO = 0.25

    def estimate_candidates(self, key_range: KeyRange, stats) -> float:
        """Estimated candidate count for ``key_range`` (cost-model input).

        Args:
            key_range: The predicate on the target column.
            stats: Catalog :class:`~repro.engine.catalog.ColumnStats` of the
                target column (duck-typed: ``row_count`` and
                ``selectivity``).

        The exact-match estimate is inflated by the mechanism's observed
        false-positive ratio (confidence-interval widening plus outliers).
        Before any lookup has run, the TRS-Tree's *build-time* estimate
        (each leaf's band width x its own host density, aggregated by
        :meth:`~repro.core.trs_tree.TRSTree.estimated_fp_ratio`) stands in
        for the observation — but only ever to make Hermit look *worse*
        than :data:`DEFAULT_FALSE_POSITIVE_RATIO`: a tree whose chosen leaf
        models still admit wide bands is priced honestly from the start,
        while a clean tree keeps the conservative default until a real
        lookup confirms it.
        """
        if self.cumulative.candidates > 0:
            false_positives = min(self.cumulative.false_positive_ratio, 0.9)
        else:
            false_positives = self.DEFAULT_FALSE_POSITIVE_RATIO
            estimated = self.trs_tree.estimated_fp_ratio()
            if estimated is not None:
                false_positives = min(max(false_positives, estimated), 0.9)
        exact = stats.row_count * stats.selectivity(key_range)
        return exact / max(1.0 - false_positives, 0.1)

    def lookup_range_scalar(self, low: float, high: float) -> HermitLookupResult:
        """Object-at-a-time reference implementation of :meth:`lookup_range`.

        This is the seed code path (per-key primary probes, per-row
        validation), kept as the reference semantics for the equivalence
        property tests and as the "scalar" side of
        ``benchmarks/bench_hotpath_vectorized.py``.  The candidate
        generation, however, shares :meth:`_candidate_array` with the
        vectorized and batch paths: the legacy Python-``set``
        materialisation of the host probe (``set(range_search_many(...))``)
        duplicated the dedup rules in a second implementation that could
        drift, and the hot-path benchmark ratios were rebased when it was
        removed (the scalar side got faster; the race now isolates the
        per-row resolution + validation overhead, which is what the
        vectorized tail actually replaced).
        """
        predicate = KeyRange(low, high)
        breakdown = LookupBreakdown(lookups=1)

        started = time.perf_counter()
        trs_result = self.trs_tree.lookup(predicate)
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        candidate_tids = self._candidate_array(trs_result).tolist()
        breakdown.host_index_seconds += time.perf_counter() - started

        locations = self._resolve_locations(candidate_tids, breakdown)

        started = time.perf_counter()
        matches = self._validate(locations, predicate)
        breakdown.base_table_seconds += time.perf_counter() - started

        breakdown.candidates += len(locations)
        breakdown.results += len(matches)
        self.cumulative.merge(breakdown)
        return HermitLookupResult(locations=matches, breakdown=breakdown)

    def _candidate_array(self, trs_result) -> np.ndarray:
        """Step 2: sorted, deduplicated candidate tids as one numpy array."""
        candidates = self.host_index.range_search_many_array(trs_result.host_ranges)
        outliers = trs_result.outlier_tid_array()
        if outliers.size and candidates.size:
            candidates = np.concatenate([candidates, outliers])
        elif outliers.size:
            candidates = outliers
        else:
            # The host index may hand out a view of its own storage.
            candidates = candidates.copy()
        return sorted_unique(candidates)

    def _resolve_locations_array(self, tids: np.ndarray,
                                 breakdown: LookupBreakdown) -> np.ndarray:
        """Map a tid array to row locations (Step 3, optional, batched)."""
        return resolve_tids_array(tids, self.pointer_scheme,
                                  self.primary_index, breakdown)

    def _resolve_locations(self, tids: "list[TupleId] | set[TupleId]",
                           breakdown: LookupBreakdown) -> list[int]:
        """Scalar reference of :meth:`_resolve_locations_array`."""
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return [int(tid) for tid in tids]
        started = time.perf_counter()
        locations: list[int] = []
        assert self.primary_index is not None
        for primary_key in tids:
            locations.extend(int(loc) for loc in self.primary_index.search(primary_key))
        breakdown.primary_index_seconds += time.perf_counter() - started
        return locations

    def _validate(self, locations: list[int], predicate: KeyRange) -> list[int]:
        """Scalar reference of the Step 4 validation (one row at a time)."""
        matches: list[int] = []
        for location in locations:
            if not self.table.is_live(location):
                continue
            value = self.table.value(location, self.target_column)
            if predicate.contains(float(value)):
                matches.append(location)
        return matches

    # ------------------------------------------------------------ maintenance

    def insert(self, row: dict, location: int) -> None:
        """Notify the index of a newly inserted row (already in the table)."""
        tid = self._tid_for(row, location)
        self.trs_tree.insert(
            float(row[self.target_column]), float(row[self.host_column]), tid
        )

    def insert_many(self, columns: dict, locations: np.ndarray) -> None:
        """Batched :meth:`insert`: column arrays in, one TRS-Tree pass.

        Args:
            columns: Column name → aligned value sequence for the new rows
                (must include the target and host columns, plus the primary
                key under logical pointers).
            locations: Row locations of the new rows, aligned with the
                columns.
        """
        targets = np.asarray(columns[self.target_column], dtype=np.float64)
        hosts = np.asarray(columns[self.host_column], dtype=np.float64)
        self.trs_tree.insert_many(
            targets, hosts, self._tids_for_batch(columns, locations)
        )

    def _tids_for_batch(self, columns: dict,
                        locations: np.ndarray) -> np.ndarray:
        """Batch counterpart of :meth:`_tid_for`."""
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return np.asarray(locations, dtype=np.int64)
        return np.asarray(columns[self.table.schema.primary_key],
                          dtype=np.float64)

    def delete(self, row: dict, location: int) -> None:
        """Notify the index that ``row`` at ``location`` was deleted."""
        tid = self._tid_for(row, location)
        self.trs_tree.delete(
            float(row[self.target_column]), float(row[self.host_column]), tid
        )

    def update(self, old_row: dict, new_row: dict, location: int) -> None:
        """Notify the index that a row changed in place.

        The old and new tuple identifiers are passed separately: under
        logical pointers a primary-key change renames the tid, and the
        delete half of the update must target the entry stored under the
        *old* identifier (probing with the new one would leave the stale
        outlier entry behind).
        """
        old_tid = self._tid_for(old_row, location)
        new_tid = self._tid_for(new_row, location)
        self.trs_tree.update(
            float(old_row[self.target_column]), float(old_row[self.host_column]),
            float(new_row[self.target_column]), float(new_row[self.host_column]),
            old_tid, new_tid=new_tid,
        )

    def _tid_for(self, row: dict, location: int) -> TupleId:
        if self.pointer_scheme is PointerScheme.PHYSICAL:
            return location
        return row[self.table.schema.primary_key]

    # --------------------------------------------------------- reorganization

    @property
    def pending_reorganizations(self) -> int:
        """Number of TRS-Tree nodes flagged for reorganization."""
        return self.trs_tree.pending_reorganizations

    def data_provider(self):
        """Return the base-table data provider used by reorganization.

        The table is projected lazily, at most once per returned provider:
        a single ``reorganize()`` pass may rebuild dozens of candidate nodes,
        and re-projecting the entire table per candidate turned the pass into
        O(candidates × table size).  The projected arrays (including resolved
        tids) are cached in the closure and re-sliced per candidate range.
        """
        cache: dict[str, np.ndarray] = {}

        def provider(key_range: KeyRange):
            if not cache:
                slots, targets, hosts = self.table.project(
                    [self.target_column, self.host_column]
                )
                cache["targets"] = targets
                cache["hosts"] = hosts
                cache["tids"] = self._tids_for_slots(slots)
            targets = cache["targets"]
            mask = (targets >= key_range.low) & (targets <= key_range.high)
            return targets[mask], cache["hosts"][mask], cache["tids"][mask]

        return provider

    def reorganize(self, max_candidates: int | None = None) -> int:
        """Run pending TRS-Tree reorganizations against the base table."""
        return self.trs_tree.reorganize(self.data_provider(), max_candidates)

    def reorganize_children(self, child_indices) -> None:
        """Force a rebuild of selected first-level subtrees (Figure 23)."""
        self.trs_tree.reorganize_children(self.data_provider(), child_indices)

    # ------------------------------------------------------------- accounting

    def memory_bytes(self) -> int:
        """Size of the Hermit structure itself (the TRS-Tree only).

        The host index and primary index are *pre-existing* structures shared
        with the rest of the database, exactly as in the paper's accounting.
        """
        return self.trs_tree.memory_bytes()

    def reset_breakdown(self) -> None:
        """Clear the cumulative breakdown counters."""
        self.cumulative = LookupBreakdown()
