"""The Tiered Regression Search Tree (TRS-Tree).

The TRS-Tree is the paper's core data structure (Section 4): a k-ary tree over
the *target* column's value domain whose leaves each hold a tiny regression
model mapping target values to host values (adaptively chosen per leaf from
the linear / log-linear / piecewise-linear families, see
``core/regression.py``), plus an outlier buffer for the tuples the model
cannot cover.  Construction (Algorithm 1) recursively partitions the domain
until every leaf's model covers at least ``1 - outlier_ratio`` of its tuples
— and would not drag in more than ``max_fp_ratio`` estimated false positives
per covered tuple — or ``max_height`` is reached; lookups
(Algorithm 2) translate a target-column predicate into a small set of
host-column ranges plus outlier tuple identifiers; maintenance (Algorithm 3)
touches only the affected leaf's outlier buffer and defers structural changes
to an on-demand reorganization pass.

The pointer tree is the *write* structure (construction, routing of writes,
reorganization).  Both lookups read one flat copy of it instead — the
:class:`LeafTable` plus a tree-wide sorted view of every outlier buffer —
which the write path keeps current; see docs/architecture.md, "TRS-Tree:
write structure vs read structure".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.node import (
    TRSInternalNode,
    TRSLeafNode,
    TRSNode,
    equal_width_subranges,
    route_indices,
)
from repro.core.regression import (
    ModelTable,
    OutlierOnlyModel,
    estimate_leaf_false_positives,
    select_leaf_model,
)
from repro.errors import StorageError
from repro.index.base import KeyRange, tid_items
from repro.index.flat_view import FlatView, flatten
from repro.segments import (
    empty_offsets,
    offsets_from_counts,
    run_indices,
    running_segment_max,
    segment_ids,
)
from repro.storage.identifiers import TupleId
from repro.storage.memory import trs_internal_bytes, trs_leaf_bytes

# A data provider hands back (target values, host values, tuple ids) for all
# live tuples whose target value falls inside the requested range.  It is how
# the reorganization pass re-reads the base table without the tree having to
# know anything about tables.
DataProvider = Callable[[KeyRange], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class TRSLookupResult:
    """Output of a TRS-Tree lookup (Algorithm 2).

    Attributes:
        host_ranges: Disjoint ranges on the host column that together cover
            every correlated match of the query predicate.
        outlier_tids: Tuple identifiers recovered directly from outlier
            buffers; they bypass the host index entirely.  A read-only
            slice of the tree's outlier view: copy before sorting in place.
        leaves_visited: Number of leaf nodes inspected.
        nodes_visited: Equal to ``leaves_visited`` (see
            :class:`TRSBatchLookupResult`).
    """

    host_ranges: list[KeyRange] = field(default_factory=list)
    outlier_tids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    leaves_visited: int = 0
    nodes_visited: int = 0


@dataclass
class TRSBatchLookupResult:
    """Output of a batched TRS-Tree lookup (:meth:`TRSTree.lookup_many`).

    Everything is kept in the flat segmented layout of ``repro.segments`` —
    query ``i`` owns ``host_lows[host_offsets[i]:host_offsets[i + 1]]`` (and
    likewise for the outlier tids) — so the batch consumer (Hermit's
    ``candidate_tids_many``) can flow the whole batch into one segmented
    host-index probe without materialising per-query Python objects.

    Per query, the emitted ranges are the scalar :meth:`TRSTree.lookup`'s
    ``KeyRange.union`` output with one extra (candidate-exact) merge: ranges
    whose gap contains **no representable float** are coalesced into one
    probe, so adjacent leaves whose bands touch up to rounding cost one
    host-index probe instead of two.  Outlier tids come in target-key
    order, as in the scalar result.

    Attributes:
        host_lows: Flat lower bounds of every emitted host range.
        host_highs: Flat upper bounds, aligned with ``host_lows``.
        host_offsets: Per-query segment boundaries over the range arrays.
        outlier_tids: Flat outlier tuple identifiers.
        outlier_offsets: Per-query segment boundaries over ``outlier_tids``.
        leaves_visited: Per-query count of leaf nodes inspected.
        nodes_visited: The same array as ``leaves_visited``: a probe of the
            flat leaf table visits no internal node.  (Kept because the
            e2e tracer reads it; a count, not a speed.)
    """

    host_lows: np.ndarray
    host_highs: np.ndarray
    host_offsets: np.ndarray
    outlier_tids: np.ndarray
    outlier_offsets: np.ndarray
    leaves_visited: np.ndarray
    nodes_visited: np.ndarray

    @property
    def num_queries(self) -> int:
        """Number of predicate ranges the batch answered."""
        return self.host_offsets.size - 1

    def ranges_per_query(self) -> np.ndarray:
        """Number of host ranges emitted for each query."""
        return np.diff(self.host_offsets)

    def host_ranges_for(self, position: int) -> list[KeyRange]:
        """Query ``position``'s host ranges as ``KeyRange`` objects."""
        start, stop = self.host_offsets[position], self.host_offsets[position + 1]
        return [KeyRange(float(low), float(high))
                for low, high in zip(self.host_lows[start:stop],
                                     self.host_highs[start:stop])]

    def outliers_for(self, position: int) -> np.ndarray:
        """Query ``position``'s outlier tids (a view into the flat array)."""
        start = self.outlier_offsets[position]
        stop = self.outlier_offsets[position + 1]
        return self.outlier_tids[start:stop]


def coalesce_sorted_ranges(lows: np.ndarray, highs: np.ndarray,
                           ids: np.ndarray, num_segments: int,
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge overlapping/contiguous ranges per segment, fully vectorized.

    Inputs must be sorted by ``(ids, lows)``.  Two ranges of one segment are
    merged when they overlap, touch, or are separated by a gap containing no
    representable float (``next.low <= nextafter(running_max_high)``) — the
    last case is the "adjacent leaves" coalesce: it cannot admit a single
    extra host value, so the merged probe set is candidate-exact while
    adjacent model bands cost one host-index probe instead of one each.

    Returns:
        ``(merged_lows, merged_highs, offsets)`` — merged ranges per segment
        in the segmented layout.
    """
    if lows.size == 0:
        return lows, highs, empty_offsets(num_segments)
    running_max = running_segment_max(highs, ids)
    previous_max = np.empty_like(running_max)
    previous_max[0] = -np.inf
    previous_max[1:] = running_max[:-1]
    starts = np.empty(lows.size, dtype=bool)
    starts[0] = True
    starts[1:] = ids[1:] != ids[:-1]
    starts |= lows > np.nextafter(previous_max, np.inf)
    start_positions = np.flatnonzero(starts)
    end_positions = np.append(start_positions[1:] - 1, lows.size - 1)
    counts = np.bincount(ids[start_positions], minlength=num_segments)
    return (lows[start_positions], running_max[end_positions],
            offsets_from_counts(counts))


class LeafTable:
    """The read structure: the tree's leaves in key order, as arrays.

    Leaves partition the target domain into consecutive closed intervals
    sharing their bound floats — the very floats writes are routed by —
    so the leaves a predicate overlaps are one contiguous run, found by
    bisecting ``bounds`` instead of descending the tree.  The first and
    last leaf are open-ended (out-of-domain inserts are clamped into them),
    hence ``lows[0] == -inf`` and ``highs[-1] == inf``.

    Attributes:
        leaves: The leaf nodes, in key order.
        bounds: The ``len(leaves) - 1`` interior bounds as a list (scalar
            ``bisect``); ``interior`` is the same as an array.
        lows / highs: Effective (edge-open) range of every leaf.
        models: Every leaf's model coefficients
            (:class:`~repro.core.regression.ModelTable`).
        emits: ``num_model_covered > 0`` per leaf — whether a probe of the
            leaf emits a host range at all.
        height: Height of the deepest leaf.
    """

    __slots__ = ("leaves", "bounds", "interior", "lows", "highs", "models",
                 "emits", "height")

    def __init__(self, root: TRSNode) -> None:
        self.leaves: list[TRSLeafNode] = [
            node for node in root.walk() if node.is_leaf]  # type: ignore[misc]
        self.bounds = [leaf.key_range.low for leaf in self.leaves[1:]]
        self.interior = np.asarray(self.bounds, dtype=np.float64)
        self.lows = np.concatenate(([-np.inf], self.interior))
        self.highs = np.concatenate((self.interior, [np.inf]))
        self.models = ModelTable([leaf.model for leaf in self.leaves])
        self.emits = np.asarray(
            [leaf.num_model_covered > 0 for leaf in self.leaves], dtype=bool)
        self.height = max(leaf.height for leaf in self.leaves)

    def start_emitting(self, leaf: TRSLeafNode, target_value: float) -> bool:
        """Set ``leaf``'s ``emits`` flag; ``target_value`` is one it owns.

        Returns False when the bounds do not lead back to ``leaf`` (the
        caller then drops the table rather than trust it).
        """
        position = bisect_right(self.bounds, target_value)
        if self.leaves[position] is not leaf:
            return False
        self.emits[position] = True
        return True


@dataclass
class ReorganizationCandidate:
    """A node flagged for structural reorganization."""

    action: str  # "split" or "merge"
    node: TRSNode


class TRSTree:
    """A TRS-Tree mapping a target column to a host column.

    Args:
        config: User-defined parameters (fanout, max height, outlier ratio,
            error bound, sampling).
    """

    def __init__(self, config: TRSTreeConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._root: TRSNode | None = None
        # The read structure.  Mutators of leaves or outlier buffers record
        # through ``_flat_view`` / flip ``_leaf_table.emits``, or drop both
        # (REP001 checks that they do).
        self._leaf_table: LeafTable | None = None
        self._flat_view = FlatView()
        self._reorg_queue: deque[ReorganizationCandidate] = deque()
        self._pending_candidates: set[tuple[str, int]] = set()

    # ------------------------------------------------------------ construction

    def build(self, targets: Sequence[float], hosts: Sequence[float],
              tids: Sequence[TupleId], value_range: KeyRange | None = None,
              parallelism: int = 1) -> None:
        """Construct the tree from column data (Algorithm 1).

        Args:
            targets: Target-column values (the column being "indexed").
            hosts: Host-column values, aligned with ``targets``.
            tids: Tuple identifiers, aligned with ``targets``.
            value_range: Full range of the target column.  Taken from the data
                when omitted (the engine normally passes optimizer statistics).
            parallelism: Number of worker threads used to build the root's
                child subtrees (Appendix D.2, multi-threaded construction).
        """
        targets = np.asarray(targets, dtype=np.float64)
        hosts = np.asarray(hosts, dtype=np.float64)
        tid_array = np.asarray(tids)
        if not (len(targets) == len(hosts) == len(tid_array)):
            raise StorageError("targets, hosts and tids must have equal length")
        if value_range is None:
            if len(targets) == 0:
                value_range = KeyRange(0.0, 0.0)
            else:
                value_range = KeyRange(float(targets.min()), float(targets.max()))
        self._reorg_queue.clear()
        self._pending_candidates.clear()
        self._root = self._build_node(
            value_range, targets, hosts, tid_array, height=1,
            parallelism=max(1, parallelism),
        )
        self._leaf_table = None
        self._flat_view.drop()
        self._outlier_view()  # flatten now: O(leaves + outliers), not on a read

    # repro: ignore[REP001] -- fills a leaf no table has seen yet; build and
    # _rebuild_node drop the table and the view when they attach it
    def _build_node(self, key_range: KeyRange, targets: np.ndarray,
                    hosts: np.ndarray, tids: np.ndarray, height: int,
                    parallelism: int = 1) -> TRSNode:
        """Build the subtree for ``key_range`` over the given tuples.

        Two criteria can reject a prospective leaf (Section 4.1 extended by
        the adaptive-leaf-model design, docs/architecture.md):

        * the *outlier ratio* — the best candidate band leaves more than
          ``outlier_ratio`` of the tuples uncovered, and
        * the *false-positive ratio* — the band would drag in more than
          ``max_fp_ratio * covered`` estimated false-positive candidates
          (band width x the leaf's own host-value density), even though the
          outlier ratio passes.

        A node failing either criterion splits while it can; a node that
        fails the false-positive criterion but cannot split is demoted to an
        exact outlier-only leaf (every tuple buffered, no host range ever
        emitted) rather than keeping a band that floods the host index.
        """
        can_split = (
            height < self.config.max_height
            and len(targets) >= self.config.min_split_size
            and key_range.width > 0
        )

        if can_split and self._sampling_says_split(key_range, targets, hosts):
            return self._split(key_range, targets, hosts, tids, height, parallelism)

        fit = select_leaf_model(
            targets, hosts, key_range, self.config.error_bound,
            trim_fraction=self.config.outlier_ratio,
            max_fp_ratio=self.config.max_fp_ratio,
        )
        model = fit.model
        covered = model.covers_many(targets, hosts) if len(targets) else np.zeros(0, bool)
        num_model_covered = int(covered.sum())
        num_outliers = int(len(targets) - num_model_covered)
        fp_estimate = estimate_leaf_false_positives(model, hosts[covered])
        too_many_fps = (
            num_model_covered > 0
            and fp_estimate > self.config.max_fp_ratio * num_model_covered
        )

        if can_split and (
            num_outliers > self.config.outlier_ratio * len(targets)
            or too_many_fps
        ):
            return self._split(key_range, targets, hosts, tids, height, parallelism)

        if too_many_fps:
            # Cannot split: store the tuples exactly instead of keeping a
            # band whose false positives would swamp its true matches.
            model = OutlierOnlyModel()
            covered = np.zeros(len(targets), dtype=bool)
            num_model_covered = 0
            fp_estimate = 0.0

        leaf = TRSLeafNode(key_range, height, model)
        leaf.num_covered = int(len(targets))
        leaf.num_model_covered = num_model_covered
        leaf.fp_estimate = fp_estimate
        if len(targets) > num_model_covered:
            # One batched buffer fill — a demoted (outlier-only) leaf files
            # *every* tuple here, so the per-tuple scalar path would be an
            # O(n log n) Python loop on each build and reorganization.
            leaf.outliers.add_many(targets[~covered], tids[~covered])
        return leaf

    def _split(self, key_range: KeyRange, targets: np.ndarray, hosts: np.ndarray,
               tids: np.ndarray, height: int, parallelism: int) -> TRSInternalNode:
        """Split a range into ``node_fanout`` children and build each.

        Tuples are partitioned with the shared :func:`route_indices` rule —
        the same arithmetic the scalar traversal and the batched insert path
        use — so a value on a child boundary is filed into the same child by
        every code path.
        """
        node = TRSInternalNode(key_range, height)
        subranges = equal_width_subranges(key_range, self.config.node_fanout)
        indices = route_indices(targets, key_range, len(subranges))

        def build_child(position: int) -> TRSNode:
            mask = indices == position
            return self._build_node(
                subranges[position], targets[mask], hosts[mask], tids[mask],
                height + 1,
            )

        if parallelism > 1 and len(targets) > 4 * self.config.min_split_size:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                children = list(pool.map(build_child, range(len(subranges))))
        else:
            children = [build_child(position) for position in range(len(subranges))]

        for child in children:
            child.parent = node
        node.children = children
        return node

    def _sampling_says_split(self, key_range: KeyRange, targets: np.ndarray,
                             hosts: np.ndarray) -> bool:
        """Sampling-based outlier pre-estimation (Appendix D.2).

        Fits the model on a small sample first; if even the sample exceeds the
        outlier ratio, the full fit is skipped and the node is split directly.
        """
        fraction = self.config.sample_fraction
        if fraction is None or len(targets) < 4 * self.config.min_split_size:
            return False
        sample_size = max(self.config.min_split_size, int(len(targets) * fraction))
        rng = np.random.default_rng(len(targets))
        positions = rng.choice(len(targets), size=sample_size, replace=False)
        sample_fit = select_leaf_model(
            targets[positions], hosts[positions], key_range, self.config.error_bound,
            trim_fraction=self.config.outlier_ratio,
            max_fp_ratio=self.config.max_fp_ratio,
        )
        covered = sample_fit.model.covers_many(targets[positions], hosts[positions])
        outliers = sample_size - int(covered.sum())
        return outliers > self.config.outlier_ratio * sample_size

    # ----------------------------------------------------------------- lookup

    def _table(self) -> LeafTable | None:
        """The leaf table, rebuilt in O(leaves) if a reorganization dropped it."""
        if self._leaf_table is None and self._root is not None:
            self._leaf_table = LeafTable(self._root)
        return self._leaf_table

    def _outlier_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, key_offsets, tids)`` of every outlier in the tree.

        Leaf order is key order and every buffer's keys lie inside its
        leaf's effective range, so the leaf-by-leaf concatenation is sorted
        tree-wide: one query's outliers are one contiguous slice.
        """
        return self._flat_view.arrays(self._outlier_buckets)

    def _outlier_buckets(self) -> tuple[list[float], list[list[TupleId]]]:
        keys: list[float] = []
        buckets: list[list[TupleId]] = []
        for leaf in self._table().leaves:
            if len(leaf.outliers):
                leaf_keys, leaf_buckets = leaf.outliers.buckets()
                keys += leaf_keys
                buckets += leaf_buckets
        return keys, buckets

    def lookup(self, predicate: KeyRange) -> TRSLookupResult:
        """Translate a target-column predicate into host ranges + outliers.

        A scalar probe of the structures :meth:`lookup_many` searches in
        array passes (a batch of one costs ~10x this).  The edge leaves are
        open-ended: values inserted after construction that fall outside
        the originally observed target domain are routed (clamped) into
        their outlier buffers, and a predicate beyond the built domain
        extrapolates the edge leaf's band — mirroring the insert path,
        which uses the same band to decide whether an out-of-domain tuple
        needs an outlier entry.  A leaf whose band covers no tuple (built
        empty, all-outlier, or demoted to an outlier-only model) holds
        nothing behind its host range and emits none.
        """
        table = self._table()
        if table is None:
            return TRSLookupResult()
        low, high = predicate.low, predicate.high
        bounds = table.bounds
        first = bisect_left(bounds, low)
        last = bisect_right(bounds, high)
        host_ranges = [
            leaf.model.host_range(KeyRange(
                low if position == first else bounds[position - 1],
                high if position == last else bounds[position]))
            for position, leaf in enumerate(table.leaves[first:last + 1], first)
            if leaf.num_model_covered > 0
        ]
        if len(host_ranges) > 1:
            host_ranges = KeyRange.union(host_ranges)
        keys, key_offsets, tids = self._outlier_view()
        outlier_tids = tids[key_offsets[keys.searchsorted(low, "left")]:
                            key_offsets[keys.searchsorted(high, "right")]]
        visited = last - first + 1
        return TRSLookupResult(host_ranges, outlier_tids, visited, visited)

    def lookup_many(self, predicates: Sequence[KeyRange]) -> TRSBatchLookupResult:
        """Batched :meth:`lookup`: translate B predicates in array passes.

        Two ``searchsorted`` over the leaf bounds find every predicate's run
        of overlapped leaves, :func:`~repro.segments.run_indices` expands the
        runs to (query, leaf) pairs, one band evaluation per model family
        serves all pairs (:meth:`ModelTable.host_ranges`), and the per-query
        ranges are sort-and-coalesced (the scalar path's ``KeyRange.union``
        plus the candidate-exact adjacent-range merge — see
        :func:`coalesce_sorted_ranges`).  Outliers are two ``searchsorted``
        over the tree-wide view and one gather.

        Emits the same host-range cover and outlier tids as B scalar
        lookups; ``tests/test_trs_lookup_many.py`` pins the equivalence.
        """
        num_queries = len(predicates)
        table = self._table()
        if table is None or num_queries == 0:
            visited = np.zeros(num_queries, dtype=np.int64)
            return TRSBatchLookupResult(
                host_lows=np.empty(0, dtype=np.float64),
                host_highs=np.empty(0, dtype=np.float64),
                host_offsets=empty_offsets(num_queries),
                outlier_tids=np.empty(0, dtype=np.int64),
                outlier_offsets=empty_offsets(num_queries),
                leaves_visited=visited, nodes_visited=visited,
            )
        lows = np.fromiter((predicate.low for predicate in predicates),
                           dtype=np.float64, count=num_queries)
        highs = np.fromiter((predicate.high for predicate in predicates),
                            dtype=np.float64, count=num_queries)

        first = np.searchsorted(table.interior, lows, side="left")
        last = np.searchsorted(table.interior, highs, side="right")
        pairs, pair_offsets = run_indices(first, last + 1)
        owners = segment_ids(pair_offsets)
        emitting = table.emits[pairs]
        if not emitting.all():
            pairs, owners = pairs[emitting], owners[emitting]
        band_lows, band_highs = table.models.host_ranges(
            pairs, np.maximum(lows[owners], table.lows[pairs]),
            np.minimum(highs[owners], table.highs[pairs]))
        order = np.lexsort((band_lows, owners))
        host_lows, host_highs, host_offsets = coalesce_sorted_ranges(
            band_lows[order], band_highs[order], owners[order], num_queries)

        keys, key_offsets, tids = self._outlier_view()
        starts = key_offsets[np.searchsorted(keys, lows, side="left")]
        stops = key_offsets[np.searchsorted(keys, highs, side="right")]
        outlier_positions, outlier_offsets = run_indices(starts, stops)
        visited = last - first + 1
        return TRSBatchLookupResult(
            host_lows=host_lows, host_highs=host_highs,
            host_offsets=host_offsets, outlier_tids=tids[outlier_positions],
            outlier_offsets=outlier_offsets, leaves_visited=visited,
            nodes_visited=visited,
        )

    # ------------------------------------------------------------ maintenance

    def insert(self, target_value: float, host_value: float, tid: TupleId) -> None:
        """Insert a tuple (Algorithm 3).

        Only the affected leaf's outlier buffer may change; if the leaf's
        model already covers the new pair nothing is stored at all.
        """
        leaf = self._traverse(target_value)
        if leaf is None:
            return
        self._place(leaf, target_value, host_value, tid)
        leaf.num_inserted += 1
        self._maybe_flag_split(leaf)

    def _place(self, leaf: TRSLeafNode, target_value: float,
               host_value: float, tid: TupleId) -> None:
        """File one pair in ``leaf``: behind its band, or as an outlier."""
        if leaf.covers(target_value, host_value):
            self._add_covered(leaf, target_value, 1)
        else:
            leaf.outliers.add(target_value, tid)
            self._flat_view.record_insert(target_value, tid)

    def _add_covered(self, leaf: TRSLeafNode, target_value: float,
                     count: int) -> None:
        """``count`` more pairs (``target_value`` among them) sit behind
        ``leaf``'s band; the first ever makes the leaf emit its host range."""
        if (count and not leaf.num_model_covered
                and self._leaf_table is not None
                and not self._leaf_table.start_emitting(leaf, target_value)):
            self._leaf_table = None
        leaf.num_model_covered += count

    def insert_many(self, targets: Sequence[float], hosts: Sequence[float],
                    tids: Sequence[TupleId]) -> None:
        """Batched :meth:`insert` (Algorithm 3, column-at-a-time).

        The batch is routed down the tree by partitioning the target array
        at every internal node with one vectorized ``searchsorted`` against
        the node's cached partition bounds — the same comparison-based rule
        as :meth:`TRSInternalNode.child_for`, so scalar and batched inserts
        file every value (boundary values included) into the same leaf;
        each reached leaf then classifies its whole run with one
        ``covers_many`` call and stores only the uncovered tuples, so the
        per-row Python traversal and per-row model evaluation of the scalar
        path disappear.
        """
        targets = np.asarray(targets, dtype=np.float64)
        hosts = np.asarray(hosts, dtype=np.float64)
        tid_array = np.asarray(tids)
        if not (len(targets) == len(hosts) == len(tid_array)):
            raise StorageError("targets, hosts and tids must have equal length")
        if self._root is None or targets.size == 0:
            return
        self._insert_many_into(self._root, targets, hosts, tid_array)

    def _insert_many_into(self, node: TRSNode, targets: np.ndarray,
                          hosts: np.ndarray, tids: np.ndarray) -> None:
        """Route a batch into the subtree at ``node`` (batched Algorithm 3)."""
        if node.is_leaf:
            leaf: TRSLeafNode = node  # type: ignore[assignment]
            covered = leaf.covers_many(targets, hosts)
            num_covered = int(covered.sum())
            if num_covered < targets.size:
                keys, outlier_tids = targets[~covered], tids[~covered]
                leaf.outliers.add_many(keys, outlier_tids)
                self._flat_view.record_insert_many(keys.tolist(),
                                                   tid_items(outlier_tids))
            self._add_covered(leaf, float(targets[0]), num_covered)
            leaf.num_inserted += int(targets.size)
            self._maybe_flag_split(leaf)
            return
        internal: TRSInternalNode = node  # type: ignore[assignment]
        fanout = len(internal.children)
        indices = internal.route_batch(targets)
        for position in range(fanout):
            mask = indices == position
            if mask.any():
                self._insert_many_into(internal.children[position],
                                       targets[mask], hosts[mask], tids[mask])

    def delete(self, target_value: float, host_value: float, tid: TupleId) -> None:
        """Delete a tuple (Algorithm 3).

        Removes the outlier entry if one exists; covered tuples leave no trace
        in the tree, so there is nothing else to undo.  ``num_deleted`` is
        only charged when the pair was plausibly present — as a removed
        outlier entry, or as a pair the model's band covers — so deletes of
        pairs the tree never stored (the no-op halves of no-op updates)
        cannot inflate ``deleted_ratio()`` into spurious merge flags.  (For
        band-covered pairs the tree keeps no per-tuple record, so repeated
        deletes of one covered pair still count each time; a merge flag is
        advisory — reorganization re-reads the base table — so the
        imprecision cannot affect query results.)
        """
        leaf = self._traverse(target_value)
        if leaf is None:
            return
        if self._remove_from_leaf(leaf, target_value, host_value, tid):
            leaf.num_deleted += 1
            self._maybe_flag_merge(leaf)

    def update(self, old_target: float, old_host: float, new_target: float,
               new_host: float, tid: TupleId,
               new_tid: TupleId | None = None) -> None:
        """Update a tuple's target and/or host value (and optionally its tid).

        An update that stays inside one leaf only *moves* the tuple — the
        leaf's population is unchanged, so neither ``num_deleted`` nor
        ``num_inserted`` is charged (charging both, as delete+insert would,
        double-counts the tuple and inflates ``deleted_ratio()`` toward
        spurious merges).  An update that crosses leaves is a genuine
        delete from one leaf plus an insert into another and is counted as
        such on each side.

        Args:
            new_tid: Tuple identifier after the update; defaults to ``tid``
                (it differs when the primary key changed under logical
                pointers).
        """
        if new_tid is None:
            new_tid = tid
        old_leaf = self._traverse(old_target)
        if old_leaf is None:
            return
        new_leaf = self._traverse(new_target)
        removed = self._remove_from_leaf(old_leaf, old_target, old_host, tid)
        if new_leaf is old_leaf:
            self._place(new_leaf, new_target, new_host, new_tid)
            self._maybe_flag_split(new_leaf)
            return
        if removed:
            old_leaf.num_deleted += 1
            self._maybe_flag_merge(old_leaf)
        self.insert(new_target, new_host, new_tid)

    def _remove_from_leaf(self, leaf: TRSLeafNode, target_value: float,
                          host_value: float, tid: TupleId) -> bool:
        """Remove one pair from ``leaf``; True when it was plausibly present.

        A pair lives in a leaf either as an outlier entry or implicitly
        behind the model's band; anything else (a value the tree never saw)
        is a no-op and must not touch the counters.  ``num_model_covered``
        is deliberately NOT decremented for band-covered deletes: the band
        keeps no per-tuple record, so a decrement cannot be validated and
        over-deleting one covered pair would drive the counter to zero
        while covered tuples still exist — silencing the leaf's host probe
        and losing them.  Keeping the counter a monotone upper bound means
        its zero/non-zero probe gate can only err on the emit-the-probe
        side, which validation absorbs.
        """
        if leaf.outliers.remove(target_value, tid):
            self._flat_view.record_delete(target_value, tid)
            return True
        return leaf.covers(target_value, host_value)

    def _traverse(self, target_value: float) -> TRSLeafNode | None:
        node = self._root
        if node is None:
            return None
        while not node.is_leaf:
            node = node.child_for(target_value)  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    def _maybe_flag_split(self, leaf: TRSLeafNode) -> None:
        if leaf.height >= self.config.max_height:
            return
        if leaf.population < self.config.min_split_size:
            return
        if leaf.outlier_ratio() > self.config.outlier_ratio:
            self._enqueue_candidate("split", leaf)

    def _maybe_flag_merge(self, leaf: TRSLeafNode) -> None:
        if leaf.parent is None:
            return
        if leaf.deleted_ratio() > self.config.outlier_ratio:
            self._enqueue_candidate("merge", leaf.parent)

    def _enqueue_candidate(self, action: str, node: TRSNode) -> None:
        key = (action, id(node))
        if key in self._pending_candidates:
            return
        self._pending_candidates.add(key)
        self._reorg_queue.append(ReorganizationCandidate(action, node))

    # --------------------------------------------------------- reorganization

    @property
    def pending_reorganizations(self) -> int:
        """Number of nodes currently flagged for reorganization."""
        return len(self._reorg_queue)

    def reorganize(self, provider: DataProvider,
                   max_candidates: int | None = None) -> int:
        """Process flagged reorganization candidates (Section 4.4).

        Args:
            provider: Callback returning ``(targets, hosts, tids)`` for every
                live tuple whose target value falls in a given range; used to
                re-read the base table for the affected sub-ranges.
            max_candidates: Process at most this many candidates (all if None).

        Returns:
            The number of candidates actually rebuilt.
        """
        processed = 0
        while self._reorg_queue:
            if max_candidates is not None and processed >= max_candidates:
                break
            candidate = self._reorg_queue.popleft()
            self._pending_candidates.discard((candidate.action, id(candidate.node)))
            if not self._is_attached(candidate.node):
                continue
            self._rebuild_node(candidate.node, provider)
            processed += 1
        return processed

    def rebuild_subtree(self, node: TRSNode, provider: DataProvider) -> None:
        """Rebuild the subtree rooted at ``node`` from base-table data."""
        self._rebuild_node(node, provider)

    def reorganize_children(self, provider: DataProvider,
                            child_indices: Iterable[int]) -> None:
        """Rebuild selected first-level subtrees (used by the Figure 23 trace)."""
        if self._root is None or self._root.is_leaf:
            if self._root is not None:
                self._rebuild_node(self._root, provider)
            return
        root: TRSInternalNode = self._root  # type: ignore[assignment]
        for index in child_indices:
            if 0 <= index < len(root.children):
                self._rebuild_node(root.children[index], provider)

    def _rebuild_node(self, node: TRSNode, provider: DataProvider) -> None:
        """Replace ``node`` by a subtree built from the base table's rows.

        Lookups and inserts treat a node on the tree's left/right edge as
        open-ended (out-of-domain values are clamped into the edge leaves),
        so the rows an edge node answers for are those of its *effective*
        range, not of the range it was built with; re-reading only the
        built range would drop every row inserted beyond the original
        domain, and lookups would miss them from then on.  The rebuilt
        subtree keeps the built range — routing clamps the extra rows into
        its own edge leaves, exactly where an insert would have put them.
        A row exactly on the node's upper bound is not the node's: routing
        files a bound under the right-hand neighbour, and a copy here would
        put one key under two leaves.
        """
        owned = self._effective_range(node)
        targets, hosts, tids = provider(owned)
        targets = np.asarray(targets, dtype=np.float64)
        keep = targets < owned.high if owned.high < np.inf else slice(None)
        rebuilt = self._build_node(
            node.key_range, targets[keep],
            np.asarray(hosts, dtype=np.float64)[keep], np.asarray(tids)[keep],
            height=node.height,
        )
        parent = node.parent
        if parent is None:
            self._root = rebuilt
            rebuilt.parent = None
        else:
            parent.replace_child(node, rebuilt)
        self._leaf_table = None
        self._flat_view.drop()

    @staticmethod
    def _effective_range(node: TRSNode) -> KeyRange:
        """``node``'s key range, open-ended on the sides where it is an edge."""
        left_edge = right_edge = True
        current = node
        while current.parent is not None and (left_edge or right_edge):
            siblings = current.parent.children
            left_edge = left_edge and siblings[0] is current
            right_edge = right_edge and siblings[-1] is current
            current = current.parent
        return KeyRange(
            float("-inf") if left_edge else node.key_range.low,
            float("inf") if right_edge else node.key_range.high,
        )

    def _is_attached(self, node: TRSNode) -> bool:
        current = node
        while current.parent is not None:
            if current not in current.parent.children:
                return False
            current = current.parent
        return current is self._root

    # ------------------------------------------------------------- statistics

    @property
    def root(self) -> TRSNode | None:
        """The root node (None before :meth:`build`)."""
        return self._root

    def nodes(self) -> Iterable[TRSNode]:
        """Iterate every node in the tree."""
        if self._root is None:
            return []
        return self._root.walk()

    def leaves(self) -> list[TRSLeafNode]:
        """All leaf nodes, in key order."""
        table = self._table()
        return [] if table is None else list(table.leaves)

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return len(self.leaves())

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return sum(1 for _ in self.nodes())

    @property
    def height(self) -> int:
        """Height of the deepest leaf (root = 1); 0 for an empty tree."""
        table = self._table()
        return 0 if table is None else table.height

    @property
    def num_outliers(self) -> int:
        """Total number of outlier entries across all leaves."""
        return sum(len(leaf.outliers) for leaf in self.leaves())

    def estimated_fp_ratio(self) -> float | None:
        """Build-time estimate of the fraction of candidates that are FPs.

        Aggregates every leaf's ``fp_estimate`` (band width x own host
        density, recorded when the leaf's model was chosen) against the
        tuples actually behind the bands, matching the semantics of
        ``LookupBreakdown.false_positive_ratio``: estimated false positives
        over estimated total candidates.  ``None`` when the tree holds no
        covered tuples (nothing to estimate from) — callers fall back to
        their conservative default.
        """
        covered = 0
        false_positives = 0.0
        for leaf in self.leaves():
            covered += leaf.num_model_covered
            false_positives += leaf.fp_estimate
        if covered <= 0:
            return None
        return false_positives / (covered + false_positives)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the structures agree (for tests).

        Leaf ranges partition the built domain; the leaf table equals a
        from-scratch flatten of the pointer tree; the outlier view equals a
        from-scratch flatten of the buffers (values and dtypes), its keys
        strictly ascending — no key filed under two leaves — and its size
        the sum of the per-leaf outlier counts.
        """
        def check(holds: bool, what: str) -> None:
            if not holds:
                raise AssertionError(f"TRS-Tree invariant broken: {what}")

        def same(ours, fresh) -> bool:
            if isinstance(ours, np.ndarray):
                return (ours.dtype == fresh.dtype and np.array_equal(
                    ours, fresh, equal_nan=ours.dtype.kind == "f"))
            return ours == fresh

        if self._root is None:
            check(self._leaf_table is None, "a leaf table without a tree")
            return
        fresh = LeafTable(self._root)
        domain = self._root.key_range
        ranges = [leaf.key_range for leaf in fresh.leaves]
        check(ranges[0].low == domain.low and ranges[-1].high == domain.high
              and all(left.high == right.low
                      for left, right in zip(ranges, ranges[1:])),
              "leaf ranges do not partition the built domain")
        for ours, theirs in ((self._table(), fresh),
                             (self._table().models, fresh.models)):
            for name in type(theirs).__slots__:
                if name != "models":
                    check(same(getattr(ours, name), getattr(theirs, name)),
                          f"leaf table field {name!r} is stale")
        view = self._outlier_view()
        for name, ours, theirs in zip(("keys", "key_offsets", "tids"), view,
                                      flatten(*self._outlier_buckets())):
            check(same(ours, theirs), f"outlier view {name} is stale")
        check(bool((np.diff(view[0]) > 0).all()),
              "outlier keys are not ascending across leaves")
        check(view[2].size == sum(len(leaf.outliers) for leaf in fresh.leaves),
              "outlier view size != sum of the per-leaf counts")

    def memory_bytes(self) -> int:
        """Analytic size of the whole tree in bytes."""
        total = 0
        for node in self.nodes():
            if node.is_leaf:
                leaf: TRSLeafNode = node  # type: ignore[assignment]
                total += trs_leaf_bytes(len(leaf.outliers))
            else:
                total += trs_internal_bytes(self.config.node_fanout)
        return total
