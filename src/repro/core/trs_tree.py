"""The Tiered Regression Search Tree (TRS-Tree).

The TRS-Tree is the paper's core data structure (Section 4): a k-ary tree over
the *target* column's value domain whose leaves each hold a tiny regression
model mapping target values to host values (adaptively chosen per leaf from
the linear and piecewise-linear families, see ``core/regression.py``), plus
outlier entries for the tuples the model cannot cover.  Construction
(Algorithm 1) recursively partitions the domain until every leaf's model
covers at least ``1 - outlier_ratio`` of its tuples — and would not drag in
more than ``max_fp_ratio`` estimated false positives per covered tuple — or
``max_height`` is reached; lookups (Algorithm 2) translate a target-column
predicate into a small set of host-column ranges plus outlier tuple
identifiers; maintenance (Algorithm 3) touches only the affected leaf's
outliers and counters and defers structural changes to an on-demand
reorganization pass.

Every node splits its range into ``node_fanout`` equal-width children, so an
interior node holds nothing its leaves' bounds and paths do not determine:
the tree *is* its :class:`LeafTable` — the leaves in key order, one row of
arrays each — plus one tree-wide outlier buffer, an
:class:`~repro.index.ordered.OrderedIndex` keyed by target value.  Build,
writes, both lookups and reorganization all work on those rows; see
docs/architecture.md, "TRS-Tree: one leaf table".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import isfinite, isnan
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.regression import (
    LeafModel,
    ModelTable,
    OutlierOnlyModel,
    estimate_leaf_false_positives,
    select_leaf_model,
)
from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import KeyRange, KeyRanges
from repro.index.ordered import OrderedIndex
from repro.segments import (
    bound_positions,
    empty_offsets,
    group_order,
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

# A node's child positions from the root: () is the root, a leaf at height h
# has a path of length h - 1.  Paths of the leaves in key order ascend.
Path = tuple[int, ...]


def partition_bounds(key_range: KeyRange, fanout: int) -> list[float]:
    """The ``fanout + 1`` equal-width partition bounds of ``key_range``.

    This is the single source of truth for where a node's children begin
    and end: :func:`equal_width_subranges` builds the child key ranges from
    it, and :func:`route_indices` routes by *comparing against these exact
    floats* — so a routed value always lies inside its child's closed
    range.  (An arithmetic routing rule like ``int((v - low) / width *
    fanout)`` cannot give that guarantee: under float rounding it can
    disagree with the separately computed bounds by an ulp, filing a tuple
    into a child whose range excludes it — and a lookup, which finds leaves
    by comparing against the same bounds, would then never find it again.)
    """
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    width = key_range.width / fanout
    return [key_range.low + i * width for i in range(fanout)] + [key_range.high]


def route_indices(values: np.ndarray, key_range: KeyRange,
                  fanout: int) -> np.ndarray:
    """Equal-width child positions for a batch of target values.

    Construction partitions a node's tuples with it.  Routing is
    :func:`~repro.segments.bound_positions` over :func:`partition_bounds`
    (pure comparisons, no float arithmetic), so a value inside the node's
    range is guaranteed to land in a child whose closed ``key_range``
    contains it; a value on an interior bound belongs to the right-hand
    child — as it does for the ``bisect_right`` over the leaf table's
    bounds that routes every write and read, whose bounds are these very
    floats.
    """
    return bound_positions(values, partition_bounds(key_range, fanout)[1:-1])


def equal_width_subranges(key_range: KeyRange, fanout: int) -> list[KeyRange]:
    """Split ``key_range`` into ``fanout`` equal-width sub-ranges.

    Built from the same :func:`partition_bounds` floats that
    :func:`route_indices` compares against, so every routed in-range value
    lies inside its child's closed range; the union covers the parent
    exactly.
    """
    bounds = partition_bounds(key_range, fanout)
    return [KeyRange(bounds[i], bounds[i + 1]) for i in range(fanout)]


@dataclass
class TRSLookupResult:
    """Output of a TRS-Tree lookup (Algorithm 2).

    Attributes:
        host_ranges: Disjoint ranges on the host column that together cover
            every correlated match of the query predicate.
        outlier_tids: Tuple identifiers recovered directly from outlier
            entries; they bypass the host index entirely.  A read-only
            slice of the outlier index: copy before sorting in place.
        leaves_visited: Number of leaves inspected.
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
        leaves_visited: Per-query count of leaves inspected.
        nodes_visited: The same array as ``leaves_visited``: the tree keeps
            no internal node to visit.  (Kept because the e2e tracer reads
            it; a count, not a speed.)
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


class LeafRow(NamedTuple):
    """One leaf as the builder emits it; its outliers go to the buffer."""

    path: Path
    low: float
    model: LeafModel
    num_covered: int
    num_model_covered: int
    num_unmodelled: int
    fp_estimate: float
    outlier_keys: np.ndarray
    outlier_tids: np.ndarray


class LeafTable:
    """The TRS-Tree: its leaves in key order, one row of arrays per leaf.

    Leaves partition the target domain into consecutive closed intervals
    sharing their bound floats, so the leaf a value belongs to is a
    ``bisect_right`` of ``bounds`` (a value on a bound belongs to the
    right-hand leaf) and the leaves a predicate overlaps are one contiguous
    run.  The first and last leaf are open-ended (out-of-domain inserts are
    routed into them), hence ``lows[0] == -inf`` and ``highs[-1] == inf``.
    A leaf's ``path`` places it in the tree: its ancestors are its path's
    prefixes, and the rows under a node are the run of paths it prefixes.

    Writes change the counters in place; only :meth:`replace` — build and
    reorganization — changes the rows themselves.  A reorganization pass
    re-derives :attr:`model_table` once, at its end, so no read writes
    tree state.  A read between a :meth:`replace` and that end would pair
    new rows with old coefficients, so the pass runs under the engine's
    write epoch (``Database.reorganize``).

    Attributes:
        domain: The root's key range, the tree's built domain.
        paths: Every leaf's path (its height is ``len(path) + 1``).
        bounds: The ``len(paths) - 1`` interior bounds as a list (scalar
            ``bisect``); ``interior`` is the same as an array.
        lows / highs: Effective (edge-open) range of every leaf.
        models: Every leaf's model object (scalar ``covers`` and
            ``host_range``).
        model_table: Their coefficients as arrays
            (:class:`~repro.core.regression.ModelTable`), as of the last
            build or reorganization pass.
        num_covered: Tuples in the leaf's range at its (re)build.
        num_model_covered: Monotone count of band-covered placements —
            build-time covered tuples plus covered inserts / update targets,
            never decremented (see ``TRSTree._remove``), so zero means no
            covered tuple was ever placed and the leaf emits no host range.
        num_inserted / num_deleted: Tuples inserted into / deleted from the
            range since the leaf was built.
        num_outliers: The leaf's entries in the tree's outlier buffer.
        num_unmodelled: Those of them whose host is not finite (NULL or
            infinite): no band covers such a pair, so the build's criteria
            and the split flag both leave them out.
        fp_estimate: Build-time estimate of the false-positive candidates a
            leaf-spanning probe drags in (band width x own host density).
        height: Height of the deepest leaf (the root is at height 1).
    """

    __slots__ = ("domain", "paths", "bounds", "interior", "lows", "highs",
                 "models", "model_table", "num_covered", "num_model_covered",
                 "num_inserted", "num_deleted", "num_outliers",
                 "num_unmodelled", "fp_estimate", "height")

    _COUNTERS = ("num_covered", "num_model_covered", "num_inserted",
                 "num_deleted", "num_outliers", "num_unmodelled",
                 "fp_estimate")

    def __init__(self, domain: KeyRange, rows: Sequence[LeafRow]) -> None:
        self.domain = domain
        self.paths = [row.path for row in rows]
        self.bounds = [row.low for row in rows[1:]]
        self.models = [row.model for row in rows]
        count = len(rows)
        self.num_covered = np.fromiter(
            (row.num_covered for row in rows), np.int64, count)
        self.num_model_covered = np.fromiter(
            (row.num_model_covered for row in rows), np.int64, count)
        self.num_inserted = np.zeros(count, dtype=np.int64)
        self.num_deleted = np.zeros(count, dtype=np.int64)
        self.num_outliers = np.fromiter(
            (row.outlier_keys.size for row in rows), np.int64, count)
        self.num_unmodelled = np.fromiter(
            (row.num_unmodelled for row in rows), np.int64, count)
        self.fp_estimate = np.fromiter(
            (row.fp_estimate for row in rows), np.float64, count)
        self._derive()
        self.model_table = ModelTable(self.models)

    def __len__(self) -> int:
        return len(self.paths)

    def replace(self, first: int, stop: int, table: LeafTable) -> None:
        """Put ``table``'s rows — a rebuild of rows ``first:stop`` — in their place.

        The rebuilt run starts at the old run's lower bound, so only the
        bounds *between* its rows are new.  :attr:`model_table` is left as
        it was: the pass derives it once at its end, not once per rebuild
        (an O(leaves) Python pass each).
        """
        self.paths[first:stop] = table.paths
        self.bounds[first:stop - 1] = table.bounds
        self.models[first:stop] = table.models
        for name in self._COUNTERS:
            column = getattr(self, name)
            setattr(self, name, np.concatenate(
                (column[:first], getattr(table, name), column[stop:])))
        self._derive()

    def _derive(self) -> None:
        self.interior = np.asarray(self.bounds, dtype=np.float64)
        self.lows = np.concatenate(([-np.inf], self.interior))
        self.highs = np.concatenate((self.interior, [np.inf]))
        self.height = max(map(len, self.paths)) + 1


class TRSTree:
    """A TRS-Tree mapping a target column to a host column.

    Args:
        config: User-defined parameters (fanout, max height, outlier ratio,
            error bound, sampling).
    """

    def __init__(self, config: TRSTreeConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._table: LeafTable | None = None
        # Every leaf's outliers, one tree-wide index keyed by target value.
        self._outliers = OrderedIndex()
        # Nodes flagged for reorganization, in flag order (a dict as an
        # ordered set of (action, path)).
        self._pending: dict[tuple[str, Path], None] = {}

    # ------------------------------------------------------------ construction

    def build(self, targets: Sequence[float], hosts: Sequence[float],
              tids: Sequence[TupleId],
              value_range: KeyRange | None = None) -> None:
        """Construct the tree from column data (Algorithm 1).

        Tuples whose target is NaN (a NULL) are left out: no range predicate
        matches NaN, so the tree has nothing to answer for them.

        Args:
            targets: Target-column values (the column being "indexed").
            hosts: Host-column values, aligned with ``targets``.
            tids: Tuple identifiers, aligned with ``targets``.
            value_range: Full range of the target column.  Taken from the data
                when omitted.
        """
        targets = np.asarray(targets, dtype=np.float64)
        hosts = np.asarray(hosts, dtype=np.float64)
        tid_array = np.asarray(tids)
        if not (len(targets) == len(hosts) == len(tid_array)):
            raise StorageError("targets, hosts and tids must have equal length")
        known = ~np.isnan(targets)
        if not known.all():
            targets, hosts, tid_array = (
                targets[known], hosts[known], tid_array[known])
        if value_range is None:
            if len(targets) == 0:
                value_range = KeyRange(0.0, 0.0)
            else:
                value_range = KeyRange(float(targets.min()), float(targets.max()))
        self._pending.clear()
        rows = self._build_node(value_range, targets, hosts, tid_array, ())
        self._table = LeafTable(value_range, rows)
        self._outliers = OrderedIndex()
        self._outliers.insert_many(*_outliers_of(rows))

    def _build_node(self, key_range: KeyRange, targets: np.ndarray,
                    hosts: np.ndarray, tids: np.ndarray,
                    path: Path) -> list[LeafRow]:
        """Build the subtree for ``key_range``: its leaves' rows in key order.

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
        exact outlier-only leaf (every tuple an outlier, no host range ever
        emitted) rather than keeping a band that floods the host index.

        Only pairs with a finite host are fitted, scored and counted: no
        band covers a NaN (NULL) or infinite host, so such a pair is filed
        as an outlier of the leaf it routes to and never counts toward
        either criterion — without that, one NaN residual makes every
        quantile NaN and the node splits to ``max_height``.
        """
        modelled = np.isfinite(hosts)
        if modelled.all():
            fit_targets, fit_hosts = targets, hosts
        else:
            fit_targets, fit_hosts = targets[modelled], hosts[modelled]
        can_split = (
            len(path) + 1 < self.config.max_height
            and len(fit_targets) >= self.config.min_split_size
            and key_range.width > 0
        )

        if can_split and self._sampling_says_split(key_range, fit_targets,
                                                   fit_hosts):
            return self._split(key_range, targets, hosts, tids, path)

        model = select_leaf_model(
            fit_targets, fit_hosts, key_range, self.config.error_bound,
            trim_fraction=self.config.outlier_ratio,
            max_fp_ratio=self.config.max_fp_ratio,
        )
        covered = model.covers_many(targets, hosts) & modelled
        num_model_covered = int(np.count_nonzero(covered))
        num_outliers = len(fit_targets) - num_model_covered
        fp_estimate = estimate_leaf_false_positives(model, hosts[covered])
        too_many_fps = (
            num_model_covered > 0
            and fp_estimate > self.config.max_fp_ratio * num_model_covered
        )

        if can_split and (
            num_outliers > self.config.outlier_ratio * len(fit_targets)
            or too_many_fps
        ):
            return self._split(key_range, targets, hosts, tids, path)

        if too_many_fps:
            # Cannot split: store the tuples exactly instead of keeping a
            # band whose false positives would swamp its true matches.
            model = OutlierOnlyModel()
            covered = np.zeros(len(targets), dtype=bool)
            num_model_covered = 0
            fp_estimate = 0.0

        return [LeafRow(path, key_range.low, model, int(len(targets)),
                        num_model_covered, len(targets) - len(fit_targets),
                        fp_estimate, targets[~covered], tids[~covered])]

    def _split(self, key_range: KeyRange, targets: np.ndarray, hosts: np.ndarray,
               tids: np.ndarray, path: Path) -> list[LeafRow]:
        """Split a range into ``node_fanout`` children; concatenate their rows.

        Tuples are partitioned with :func:`route_indices`, which files a
        value on a child boundary exactly where the leaf table's
        ``bisect_right`` will route it later, and grouped by child with one
        stable sort (:func:`~repro.segments.group_order`): every child
        builds from a slice holding its tuples in their original order, so
        its sums round as they would over a masked copy.
        """
        subranges = equal_width_subranges(key_range, self.config.node_fanout)
        order, offsets = group_order(
            route_indices(targets, key_range, len(subranges)), len(subranges))
        targets, hosts, tids = targets[order], hosts[order], tids[order]
        starts = offsets.tolist()
        rows = []
        for position, subrange in enumerate(subranges):
            run = slice(starts[position], starts[position + 1])
            rows += self._build_node(subrange, targets[run], hosts[run],
                                     tids[run], path + (position,))
        return rows

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
        sample_model = select_leaf_model(
            targets[positions], hosts[positions], key_range, self.config.error_bound,
            trim_fraction=self.config.outlier_ratio,
            max_fp_ratio=self.config.max_fp_ratio,
        )
        covered = sample_model.covers_many(targets[positions], hosts[positions])
        outliers = sample_size - int(covered.sum())
        return outliers > self.config.outlier_ratio * sample_size

    # ----------------------------------------------------------------- lookup

    def lookup(self, predicate: KeyRange) -> TRSLookupResult:
        """Translate a target-column predicate into host ranges + outliers.

        A scalar probe of the structures :meth:`lookup_many` searches in
        array passes (a batch of one costs ~10x this).  The edge leaves are
        open-ended: values inserted after construction that fall outside
        the originally observed target domain are routed into them, and a
        predicate beyond the built domain extrapolates the edge leaf's band
        — mirroring the insert path, which uses the same band to decide
        whether an out-of-domain tuple needs an outlier entry.  A leaf whose
        band covers no tuple (built empty, all-outlier, or demoted to an
        outlier-only model) holds nothing behind its host range and emits
        none.
        """
        table = self._table
        if table is None:
            return TRSLookupResult()
        low, high = predicate.low, predicate.high
        bounds = table.bounds
        first = bisect_left(bounds, low)
        last = bisect_right(bounds, high)
        covered = table.num_model_covered
        host_ranges = [
            model.host_range(KeyRange(
                low if position == first else bounds[position - 1],
                high if position == last else bounds[position]))
            for position, model in enumerate(table.models[first:last + 1], first)
            if covered[position] > 0
        ]
        if len(host_ranges) > 1:
            host_ranges = KeyRange.union(host_ranges)
        visited = last - first + 1
        return TRSLookupResult(host_ranges,
                               self._outliers.range_search_array(predicate),
                               visited, visited)

    def lookup_many(self, predicates: "KeyRanges | Sequence[KeyRange]",
                    ) -> TRSBatchLookupResult:
        """Batched :meth:`lookup`: translate B predicates in array passes.

        Two ``searchsorted`` over the leaf bounds find every predicate's run
        of overlapped leaves, :func:`~repro.segments.run_indices` expands the
        runs to (query, leaf) pairs, one band evaluation per model family
        serves all pairs (:meth:`ModelTable.host_ranges`), and the per-query
        ranges are sort-and-coalesced (the scalar path's ``KeyRange.union``
        plus the candidate-exact adjacent-range merge — see
        :func:`coalesce_sorted_ranges`).  Outliers are one segmented probe
        of the tree-wide outlier index.

        Emits the same host-range cover and outlier tids as B scalar
        lookups; ``tests/test_trs_lookup_many.py`` pins the equivalence.
        ``predicates`` is read through :meth:`KeyRanges.of`, so a plain
        list of ``KeyRange`` works too.
        """
        predicates = KeyRanges.of(predicates)
        num_queries = len(predicates)
        table = self._table
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
        lows, highs = predicates.lows, predicates.highs
        first = np.searchsorted(table.interior, lows, side="left")
        last = np.searchsorted(table.interior, highs, side="right")
        pairs, pair_offsets = run_indices(first, last + 1)
        owners = segment_ids(pair_offsets)
        emitting = table.num_model_covered[pairs] > 0
        if not emitting.all():
            pairs, owners = pairs[emitting], owners[emitting]
        band_lows, band_highs = table.model_table.host_ranges(
            pairs, np.maximum(lows[owners], table.lows[pairs]),
            np.minimum(highs[owners], table.highs[pairs]))
        order = np.lexsort((band_lows, owners))
        host_lows, host_highs, host_offsets = coalesce_sorted_ranges(
            band_lows[order], band_highs[order], owners[order], num_queries)

        outlier_tids, outlier_offsets = self._outliers.range_search_segmented(
            predicates)
        visited = last - first + 1
        return TRSBatchLookupResult(
            host_lows=host_lows, host_highs=host_highs,
            host_offsets=host_offsets, outlier_tids=outlier_tids,
            outlier_offsets=outlier_offsets, leaves_visited=visited,
            nodes_visited=visited,
        )

    # ------------------------------------------------------------ maintenance

    def insert(self, target_value: float, host_value: float, tid: TupleId) -> None:
        """Insert a tuple (Algorithm 3).

        Only the affected leaf's counters and outliers may change; if the
        leaf's model already covers the new pair no entry is stored at all.
        A NaN target (a NULL) is not stored.
        """
        table = self._table
        if table is None or isnan(target_value):
            return
        row = bisect_right(table.bounds, target_value)
        self._place(row, target_value, host_value, tid)
        table.num_inserted[row] += 1
        self._maybe_flag_split(row)

    def _place(self, row: int, target_value: float, host_value: float,
               tid: TupleId) -> None:
        """File one pair in leaf ``row``: behind its band, or as an outlier."""
        table = self._table
        if table.models[row].covers(target_value, host_value):
            table.num_model_covered[row] += 1
        else:
            self._outliers.insert(target_value, tid)
            table.num_outliers[row] += 1
            if not isfinite(host_value):
                table.num_unmodelled[row] += 1

    def insert_many(self, targets: Sequence[float], hosts: Sequence[float],
                    tids: Sequence[TupleId]) -> None:
        """Batched :meth:`insert` (Algorithm 3, column-at-a-time).

        One ``searchsorted`` over the leaf bounds routes the batch — the
        array form of the scalar path's ``bisect_right``, so both file every
        value (boundary values included) into the same leaf — and each
        touched leaf classifies its run of the batch with one
        ``covers_many`` call; the uncovered tuples of the batch are filed
        with one ``insert_many``.  A batch of one row (every
        ``Database.insert``) takes the scalar path, which files it the same
        way without the array set-up.
        """
        targets = np.asarray(targets, dtype=np.float64)
        hosts = np.asarray(hosts, dtype=np.float64)
        tid_array = np.asarray(tids)
        if len(targets) == len(hosts) == len(tid_array) == 1:
            self.insert(float(targets[0]), float(hosts[0]), tid_array.item())
            return
        if not (len(targets) == len(hosts) == len(tid_array)):
            raise StorageError("targets, hosts and tids must have equal length")
        table = self._table
        if table is None:
            return
        known = ~np.isnan(targets)
        if not known.all():
            targets, hosts, tid_array = (
                targets[known], hosts[known], tid_array[known])
        if targets.size == 0:
            return
        # Group the batch by leaf, in leaf order; a one-leaf tree takes it
        # whole (routing and sorting would cost more than classifying it).
        touched, starts = [0], [0]
        if len(table) > 1:
            order, offsets = group_order(
                table.interior.searchsorted(targets, side="right"), len(table))
            targets, hosts, tid_array = (
                targets[order], hosts[order], tid_array[order])
            touched = np.flatnonzero(np.diff(offsets)).tolist()
            starts = offsets[touched].tolist()
        stops = starts[1:] + [targets.size]
        runs = []
        unmodelled = ~np.isfinite(hosts)
        for row, start, stop in zip(touched, starts, stops):
            covered = table.models[row].covers_many(targets[start:stop],
                                                    hosts[start:stop])
            num_covered = int(np.count_nonzero(covered))
            table.num_inserted[row] += stop - start
            table.num_model_covered[row] += num_covered
            table.num_outliers[row] += stop - start - num_covered
            table.num_unmodelled[row] += int(np.count_nonzero(
                unmodelled[start:stop] & ~covered))
            runs.append(covered)
        covered = runs[0] if len(runs) == 1 else np.concatenate(runs)
        if not covered.all():
            self._outliers.insert_many(targets[~covered], tid_array[~covered])
        for row in touched:
            self._maybe_flag_split(row)

    def delete(self, target_value: float, host_value: float, tid: TupleId) -> None:
        """Delete a tuple (Algorithm 3).

        Removes the outlier entry if one exists; covered tuples leave no trace
        in the tree, so there is nothing else to undo.  ``num_deleted`` is
        only charged when the pair was plausibly present — as a removed
        outlier entry, or as a pair the model's band covers — so deletes of
        pairs the tree never stored (the no-op halves of no-op updates, NaN
        targets) cannot inflate the deleted ratio into spurious merge flags.
        (For band-covered pairs the tree keeps no per-tuple record, so
        repeated deletes of one covered pair still count each time; a merge
        flag is advisory — reorganization re-reads the base table — so the
        imprecision cannot affect query results.)
        """
        table = self._table
        if table is None or isnan(target_value):
            return
        row = bisect_right(table.bounds, target_value)
        if self._remove(row, target_value, host_value, tid):
            table.num_deleted[row] += 1
            self._maybe_flag_merge(row)

    def update(self, old_target: float, old_host: float, new_target: float,
               new_host: float, tid: TupleId,
               new_tid: TupleId | None = None) -> None:
        """Update a tuple's target and/or host value (and optionally its tid).

        An update that stays inside one leaf only *moves* the tuple — the
        leaf's population is unchanged, so neither ``num_deleted`` nor
        ``num_inserted`` is charged (charging both, as delete+insert would,
        double-counts the tuple and inflates the deleted ratio toward
        spurious merges).  An update that crosses leaves, or to or from a
        NaN target, is a genuine :meth:`delete` plus :meth:`insert`.

        Args:
            new_tid: Tuple identifier after the update; defaults to ``tid``
                (it differs when the primary key changed under logical
                pointers).
        """
        if new_tid is None:
            new_tid = tid
        table = self._table
        if table is not None and not (isnan(old_target) or isnan(new_target)):
            row = bisect_right(table.bounds, old_target)
            if row == bisect_right(table.bounds, new_target):
                self._remove(row, old_target, old_host, tid)
                self._place(row, new_target, new_host, new_tid)
                self._maybe_flag_split(row)
                return
        self.delete(old_target, old_host, tid)
        self.insert(new_target, new_host, new_tid)

    def _remove(self, row: int, target_value: float, host_value: float,
                tid: TupleId) -> bool:
        """Remove one pair from leaf ``row``; True when it was plausibly present.

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
        table = self._table
        try:
            self._outliers.delete(target_value, tid)
        except KeyNotFoundError:
            return table.models[row].covers(target_value, host_value)
        table.num_outliers[row] -= 1
        if not isfinite(host_value):
            table.num_unmodelled[row] -= 1
        return True

    def _maybe_flag_split(self, row: int) -> None:
        """Flag leaf ``row`` for a split when its outlier ratio fails.

        Counted as :meth:`_build_node` counts, over the pairs with a finite
        host only: a rebuild of a leaf whose finite pairs pass would
        reproduce the same leaf, and flag it again on the next write.
        """
        table = self._table
        path = table.paths[row]
        if len(path) + 1 >= self.config.max_height:
            return
        unmodelled = int(table.num_unmodelled[row])
        population = max(0, int(table.num_covered[row] + table.num_inserted[row]
                                - table.num_deleted[row]) - unmodelled)
        if population < self.config.min_split_size:
            return
        if ((int(table.num_outliers[row]) - unmodelled) / population
                > self.config.outlier_ratio):
            self._pending.setdefault(("split", path))

    def _maybe_flag_merge(self, row: int) -> None:
        table = self._table
        path = table.paths[row]
        covered = int(table.num_covered[row])
        if (path and covered > 0 and int(table.num_deleted[row]) / covered
                > self.config.outlier_ratio):
            self._pending.setdefault(("merge", path[:-1]))

    # --------------------------------------------------------- reorganization

    @property
    def pending_reorganizations(self) -> int:
        """Number of nodes currently flagged for reorganization."""
        return len(self._pending)

    def reorganize(self, provider: DataProvider,
                   max_candidates: int | None = None) -> int:
        """Process flagged reorganization candidates (Section 4.4).

        A leaf flagged for a split is rebuilt in place; a merge flag names
        the parent of the leaf that lost too many tuples, and the parent's
        whole run of leaves is rebuilt.  Candidates are taken in flag order.
        The tree is consistent again only when the pass returns, so no read
        may run beside it: the engine runs it under its write epoch
        (``Database.reorganize``).

        Args:
            provider: Callback returning ``(targets, hosts, tids)`` for every
                live tuple whose target value falls in a given range; used to
                re-read the base table for the affected sub-ranges.
            max_candidates: Process at most this many candidates (all if None).

        Returns:
            The number of candidates actually rebuilt.
        """
        processed = 0
        try:
            while self._pending and (max_candidates is None
                                     or processed < max_candidates):
                candidate = next(iter(self._pending))
                del self._pending[candidate]
                processed += 1
                self._rebuild(candidate[1], provider)
        finally:
            if processed:
                self._derive_model_table()
        return processed

    def reorganize_children(self, provider: DataProvider,
                            child_indices: Iterable[int]) -> None:
        """Rebuild selected first-level subtrees (used by the Figure 23 trace).

        A tree that is a single leaf is rebuilt whole.  Like
        :meth:`reorganize`, no read may run beside it.
        """
        table = self._table
        if table is None:
            return
        try:
            if len(table) == 1:
                self._rebuild((), provider)
                return
            for index in child_indices:
                if 0 <= index < self.config.node_fanout:
                    self._rebuild((index,), provider)
        finally:
            self._derive_model_table()

    def _derive_model_table(self) -> None:
        """End a reorganization pass: the rebuilt rows' coefficients, once."""
        table = self._table
        table.model_table = ModelTable(table.models)

    def _rebuild(self, path: Path, provider: DataProvider) -> None:
        """Replace the leaves under node ``path`` by a subtree built from the
        base table's rows.

        The node's key range is :func:`partition_bounds` replayed from the
        domain along ``path`` — the very floats the build split by.
        Lookups and inserts treat the leaves on the tree's left/right edge
        as open-ended, so the rows a node whose leaves start at row 0 (end
        at the last row) answers for are those of its *effective* range, not
        of the range it was built with; re-reading only the built range
        would drop every row inserted beyond the original domain, and
        lookups would miss them from then on.  The rebuilt subtree keeps the
        built range — routing puts the extra rows into its own edge leaves,
        exactly where an insert would have put them.  A row exactly on the
        node's upper bound is not the node's: routing files a bound under
        the right-hand neighbour, and a copy here would put one key under
        two leaves.  Candidates queued for the node or anything under it
        refer to leaves that no longer exist and are dropped.
        """
        table = self._table
        first = bisect_left(table.paths, path)
        stop = (bisect_left(table.paths, path[:-1] + (path[-1] + 1,), first)
                if path else len(table))
        key_range = table.domain
        for position in path:
            key_range = equal_width_subranges(
                key_range, self.config.node_fanout)[position]
        owned = KeyRange(-np.inf if first == 0 else key_range.low,
                         np.inf if stop == len(table) else key_range.high)
        targets, hosts, tids = provider(owned)
        targets = np.asarray(targets, dtype=np.float64)
        keep = ~np.isnan(targets)
        if owned.high < np.inf:
            keep &= targets < owned.high
        rows = self._build_node(
            key_range, targets[keep], np.asarray(hosts, dtype=np.float64)[keep],
            np.asarray(tids)[keep], path)

        # The run's outlier entries are the keys routed into it: at least
        # its first leaf's lower bound, below the next run's.
        self._outliers.delete_range(
            table.lows[first], table.lows[stop] if stop < len(table) else np.inf)
        self._outliers.insert_many(*_outliers_of(rows))
        table.replace(first, stop, LeafTable(key_range, rows))
        for candidate in [candidate for candidate in self._pending
                          if candidate[1][:len(path)] == path]:
            del self._pending[candidate]

    # ------------------------------------------------------------- statistics

    @property
    def num_leaves(self) -> int:
        """Number of leaves."""
        return 0 if self._table is None else len(self._table)

    @property
    def height(self) -> int:
        """Height of the deepest leaf (root = 1); 0 for an empty tree."""
        return 0 if self._table is None else self._table.height

    @property
    def num_outliers(self) -> int:
        """Total number of outlier entries across all leaves."""
        return self._outliers.num_entries

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
        if self._table is None:
            return None
        covered = int(self._table.num_model_covered.sum())
        if covered <= 0:
            return None
        false_positives = 0.0
        for estimate in self._table.fp_estimate.tolist():
            false_positives += estimate  # in key order, left to right
        return false_positives / (covered + false_positives)

    def check_invariants(self, targets: Sequence[float] = (),
                         hosts: Sequence[float] = (),
                         tids: Sequence[TupleId] = ()) -> None:
        """Raise ``AssertionError`` unless the leaf table is one tree that
        never misses a given pair (for tests).

        The paths are the leaves of one full ``node_fanout``-ary tree in key
        order; every leaf's lower bound is its path's partition bound
        replayed from the domain; every column has one entry per leaf; the
        outlier index's keys ascend, each leaf's outlier count is the
        number of entries routed to it, and its count of non-finite-host
        outliers lies between zero and that number.  Every given live pair
        with a non-NaN target — the paper's "never miss" contract — sits
        behind its leaf's band (and the leaf emits its host range) or is in
        the outlier index under its own key.
        """
        def check(holds: bool, what: str) -> None:
            if not holds:
                raise AssertionError(f"TRS-Tree invariant broken: {what}")

        targets = np.asarray(targets, dtype=np.float64)
        known = ~np.isnan(targets)
        targets = targets[known]
        hosts = np.asarray(hosts, dtype=np.float64)[known]
        live_tids = np.asarray(tids)[known]
        table = self._table
        if table is None:
            check(self.num_outliers == 0, "outliers without a tree")
            check(targets.size == 0, "live pairs without a tree")
            return
        fanout = self.config.node_fanout
        size = len(table)
        check(len(table.bounds) == size - 1 and len(table.models) == size
              and all(getattr(table, name).shape == (size,)
                      for name in LeafTable._COUNTERS),
              "a column without one entry per leaf")
        expected: list[int] | None = []
        for row, path in enumerate(table.paths):
            check(expected is not None
                  and list(path[:len(expected)]) == expected
                  and not any(path[len(expected):]),
                  f"leaf {row}'s path {path} does not follow its predecessor")
            expected = list(path)
            while expected and expected[-1] == fanout - 1:
                expected.pop()
            expected = expected[:-1] + [expected[-1] + 1] if expected else None
            key_range = table.domain
            for position in path:
                key_range = equal_width_subranges(key_range, fanout)[position]
            check(row == 0 or table.bounds[row - 1] == key_range.low,
                  f"leaf {row}'s bound is not its path's")
        check(expected is None, "the last leaf does not end the tree")
        filed = list(self._outliers.items())
        keys = np.asarray([key for key, _ in filed], dtype=np.float64)
        check(bool((np.diff(keys) >= 0).all()), "outlier keys do not ascend")
        routed = np.bincount(table.interior.searchsorted(keys, side="right"),
                             minlength=size)
        check(np.array_equal(routed, table.num_outliers),
              "per-leaf outlier counts do not match the buffer")
        check(bool(((table.num_unmodelled >= 0)
                    & (table.num_unmodelled <= table.num_outliers)).all()),
              "a leaf counts more non-finite-host outliers than outliers")
        rows = table.interior.searchsorted(targets, side="right")
        behind_band = np.zeros(targets.size, dtype=bool)
        for row in np.unique(rows).tolist():
            if table.num_model_covered[row] > 0:
                run = rows == row
                behind_band[run] = table.models[row].covers_many(
                    targets[run], hosts[run])
        filed = set(filed)
        for pair in zip(targets[~behind_band].tolist(),
                        live_tids[~behind_band].tolist()):
            check(pair in filed,
                  f"live pair {pair} is neither behind its leaf's band nor "
                  f"an outlier")

    def memory_bytes(self) -> int:
        """Analytic size of the whole tree in bytes.

        Prices the paper's node layout: every leaf with its outlier entries,
        plus the ``(leaves - 1) / (fanout - 1)`` internal nodes a full
        ``fanout``-ary tree over those leaves has.
        """
        if self._table is None:
            return 0
        fanout = self.config.node_fanout
        internal = (len(self._table) - 1) // (fanout - 1)
        return (sum(map(trs_leaf_bytes, self._table.num_outliers.tolist()))
                + internal * trs_internal_bytes(fanout))


def _outliers_of(rows: Sequence[LeafRow]) -> tuple[np.ndarray, np.ndarray]:
    """Every row's outlier keys and tids, concatenated in key order."""
    return (np.concatenate([row.outlier_keys for row in rows]),
            np.concatenate([row.outlier_tids for row in rows]))
