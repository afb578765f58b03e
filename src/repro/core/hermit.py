"""The Hermit secondary-indexing mechanism.

Hermit answers queries on a *target* column without a complete index on it.
It combines (Section 5):

1. a :class:`~repro.core.trs_tree.TRSTree` that translates the target-column
   predicate into host-column ranges plus outlier tuple identifiers,
2. the pre-existing *host index* on the correlated column,
3. an optional *primary index* probe when the RDBMS uses logical pointers, and
4. a *base-table validation* step that removes false positives.

This module implements Steps 1–2 — candidate generation — plus maintenance
and reorganization.  Host-index probes return numpy tid arrays
(:meth:`~repro.index.base.Index.range_search_many_array` for one request,
``range_search_segmented`` for a batch — on an ordered host index both
search its sorted key arrays, and with no write recorded since its last
fold one request's single range comes back as a read-only view of index
storage) and candidate dedup is one
in-place sort plus a neighbour mask (:func:`~repro.segments.sorted_unique`;
on the batch path one sort of a narrow ``(query, tid)`` key that the
outlier tids join).  Steps 3–4 are the two shared lookup tails of
:mod:`repro.core.lookup`, which the engine's executor runs after the
candidates: a Hermit index is read through ``Database`` (planned, or forced
by name with ``query_with`` / ``query_with_many``), and the per-phase
:class:`~repro.core.lookup.LookupBreakdown` its results carry is what the
benchmark harness uses to regenerate the breakdown figures (Figures 10, 14,
24b).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.lookup import LookupBreakdown, SecondaryMechanism
from repro.core.trs_tree import TRSTree
from repro.index.base import Index, KeyRange, KeyRanges
from repro.segments import (
    offsets_from_counts,
    segmented_sort,
    segmented_unique,
    sorted_unique,
)
from repro.storage.identifiers import PointerScheme
from repro.storage.table import Table


def regroup_host_probes(host_values: np.ndarray, host_offsets: np.ndarray,
                        ranges_per_query: "list[int] | np.ndarray",
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Fold per-*range* host-probe segments into per-*query* segments.

    The correlation mechanisms translate each query into several host
    ranges; probing the flattened range list with one
    ``range_search_segmented`` call returns per-range segments in
    query-major order, so regrouping keeps every query's first range
    boundary — no data movement.
    """
    ranges_per_query = np.asarray(ranges_per_query, dtype=np.int64)
    return host_values, host_offsets[offsets_from_counts(ranges_per_query)]


class HermitIndex(SecondaryMechanism):
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
    """

    def __init__(self, table: Table, target_column: str, host_column: str,
                 host_index: Index, primary_index: Index | None = None,
                 pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                 config: TRSTreeConfig = DEFAULT_CONFIG) -> None:
        super().__init__(table, target_column, primary_index, pointer_scheme)
        self.host_column = host_column
        self.host_index = host_index
        self.trs_tree = TRSTree(config)

    # ----------------------------------------------------------- construction

    def build(self) -> None:
        """Construct the TRS-Tree from the current table contents.

        The tree's domain is the live targets' range; NULL (NaN) targets
        are left out of both.
        """
        slots, targets, hosts = self.table.project(
            [self.target_column, self.host_column])
        self.trs_tree.build(targets, hosts, self._tids_for_slots(slots))

    # --------------------------------------------------- candidate generation

    def candidate_tids(self, key_range: KeyRange,
                       breakdown: LookupBreakdown) -> np.ndarray:
        """Steps 1–2 of the lookup: duplicate-free candidate tids.

        Stops *before* pointer resolution and base-table validation so the
        planner can intersect candidate tid sets from several access paths
        and pay resolution + validation once, on the intersection.  The
        candidate set may contain false positives; the tail's validation
        pass removes them.

        The rule of :meth:`candidate_tids_many`: the host probes alone are
        duplicate-free (disjoint host ranges over a complete index), so
        the dedup runs only when outlier tids join them, and the candidates
        are otherwise handed over as the host index answers them (in host-key
        order within its run and within its record) — possibly as a
        read-only view of host-index storage.
        """
        started = time.perf_counter()
        trs_result = self.trs_tree.lookup(key_range)
        translated = time.perf_counter()
        breakdown.trs_seconds += translated - started

        candidates = self.host_index.range_search_many_array(
            trs_result.host_ranges)
        if trs_result.outlier_tids.size:
            # An outlier's host value may also lie in a probed range.
            candidates = sorted_unique(
                np.concatenate([candidates, trs_result.outlier_tids]))
        breakdown.host_index_seconds += time.perf_counter() - translated
        return candidates

    def candidate_tids_many(self, ranges: KeyRanges,
                            breakdown: LookupBreakdown,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batch variant of :meth:`candidate_tids`.

        *One* TRS-Tree translation for the whole batch
        (:meth:`~repro.core.trs_tree.TRSTree.lookup_many` — array passes
        over the flat leaf table, not one probe per query), then *one*
        host-index pass over the flattened host ranges of the whole batch
        (``range_search_segmented`` of the translation's own bound arrays,
        as one :class:`~repro.index.base.KeyRanges`), per-range segments
        regrouped to per-query ones by summing run sizes — the candidate
        tids of B queries in a constant number of array passes.  Returns
        ``(values, offsets)``; see ``repro.segments``.

        Every segment comes back duplicate-free.  The TRS-Tree unions each
        query's host ranges into a disjoint cover (Algorithm 2) and a
        complete host index stores each row once, so the host probes alone
        cannot produce within-query duplicates; the
        :func:`~repro.segments.segmented_unique` dedup runs only when there
        are outlier tids (an outlier's host value may also fall inside a
        probed range) — they join its one sort with their own segment ids
        instead of being spliced in first — and leaves the segments sorted.
        Under physical pointers the segments are sorted in every case
        (:attr:`sorted_candidates`), which lets the segmented tail skip its
        final sort — the batch sorts its candidates once.  Under logical
        pointers the tail ends with a dedup that sorts anyway, so a batch
        without outliers is handed over as the host index answers it.
        """
        started = time.perf_counter()
        batch = self.trs_tree.lookup_many(ranges)
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        values, offsets = self.host_index.range_search_segmented(
            KeyRanges(batch.host_lows, batch.host_highs))
        values, offsets = regroup_host_probes(values, offsets,
                                              batch.ranges_per_query())
        if batch.outlier_tids.size:
            values, offsets = segmented_unique(
                values, offsets, batch.outlier_tids, batch.outlier_offsets)
        elif self.sorted_candidates:
            values, offsets = segmented_sort(values, offsets)
        breakdown.host_index_seconds += time.perf_counter() - started
        return values, offsets

    @property
    def sorted_candidates(self) -> bool:
        """Planner contract: does :meth:`candidate_tids_many` sort every segment?

        Only where the segmented tail can use it: under physical pointers
        the sorted candidates are the sorted result.
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

    # ------------------------------------------------------------ maintenance

    def insert_many(self, columns: dict, locations: np.ndarray) -> None:
        """Notify the index of newly inserted rows: one TRS-Tree pass.

        Args:
            columns: Column name → the rows' stored values (the target and
                host columns, plus the primary key under logical pointers),
                aligned with ``locations``; likewise for the other writes.
            locations: Row locations of the rows.
        """
        self.trs_tree.insert_many(*self._tree_columns(columns, locations))

    def delete_many(self, columns: dict, locations: np.ndarray) -> None:
        """Notify the index of deleted rows: one TRS-Tree pass."""
        self.trs_tree.delete_many(*self._tree_columns(columns, locations))

    def update_many(self, old_columns: dict, new_columns: dict,
                    locations: np.ndarray) -> None:
        """Notify the index of rows changed in place: one TRS-Tree pass
        that keeps Algorithm 3's counter policy per row.

        The old and new tids are passed apart: under logical pointers a
        primary-key change renames the tid, and the old pair must leave
        under the *old* one (the new one would leave a stale outlier).
        """
        targets, hosts, tids = self._tree_columns(old_columns, locations)
        new_targets, new_hosts, new_tids = self._tree_columns(new_columns,
                                                              locations)
        self.trs_tree.update_many(targets, hosts, new_targets, new_hosts,
                                  tids, new_tids)

    def _tree_columns(self, columns: dict, locations: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows' targets, hosts and tids, as the TRS-Tree takes them."""
        return (np.asarray(columns[self.target_column], dtype=np.float64),
                np.asarray(columns[self.host_column], dtype=np.float64),
                self._tids_for_batch(columns, locations))

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

    def reorganize(self) -> int:
        """Run every pending TRS-Tree rebuild against the base table.

        The mechanism behind :meth:`Database.reorganize
        <repro.engine.database.Database.reorganize>`, which runs it under
        the write epoch; no read may run beside it.  Returns the number of
        nodes rebuilt.
        """
        return self.trs_tree.reorganize(self.data_provider())

    def reorganize_children(self, child_indices) -> None:
        """Force a rebuild of selected first-level subtrees (Figure 23).

        Like :meth:`reorganize`, no read may run beside it.
        """
        self.trs_tree.reorganize_children(self.data_provider(), child_indices)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the index never misses (for tests).

        The TRS-Tree is one well-formed tree, and every live row with a
        non-NULL target is behind its leaf's band or in the outlier buffer
        under its tid (:meth:`~repro.core.trs_tree.TRSTree.check_invariants`
        over the live rows).
        """
        slots, targets, hosts = self.table.project(
            [self.target_column, self.host_column])
        self.trs_tree.check_invariants(targets, hosts,
                                       self._tids_for_slots(slots))

    # ------------------------------------------------------------- accounting

    def memory_bytes(self) -> int:
        """Size of the Hermit structure itself (the TRS-Tree only).

        The host index and primary index are *pre-existing* structures shared
        with the rest of the database, exactly as in the paper's accounting.
        """
        return self.trs_tree.memory_bytes()
