"""TRS-Tree node types.

A TRS-Tree is a k-ary tree over the *target* column's value domain.  Internal
nodes only navigate: they split their range into ``node_fanout`` equal-width
sub-ranges, one per child.  Leaf nodes carry the actual data mapping: a fitted
:class:`~repro.core.regression.LeafModel` (linear, log-linear,
piecewise-linear or outlier-only) plus an
:class:`~repro.core.outliers.OutlierBuffer` for the tuples the model does not
cover.
"""

from __future__ import annotations

import bisect
from typing import Iterator

import numpy as np

from repro.core.outliers import OutlierBuffer
from repro.core.regression import LeafModel
from repro.index.base import KeyRange


def partition_bounds(key_range: KeyRange, fanout: int) -> list[float]:
    """The ``fanout + 1`` equal-width partition bounds of ``key_range``.

    This is the single source of truth for where a node's children begin
    and end: :func:`equal_width_subranges` builds the child key ranges from
    it, and :func:`route_indices` / :func:`route_index` route by *comparing
    against these exact floats* — so a routed value always lies inside its
    child's closed range.  (An arithmetic routing rule like
    ``int((v - low) / width * fanout)`` cannot give that guarantee: under
    float rounding it can disagree with the separately computed bounds by
    an ulp, filing a tuple into a child whose range excludes it — and a
    lookup, which finds leaves by comparing against the same bounds, would
    then never find it again.)
    """
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    width = key_range.width / fanout
    return [key_range.low + i * width for i in range(fanout)] + [key_range.high]


def route_indices(values: np.ndarray, key_range: KeyRange,
                  fanout: int) -> np.ndarray:
    """Equal-width child positions for a batch of target values.

    This is THE routing rule of the tree: construction-time partitioning,
    scalar traversal and batched inserts all call it (directly or through
    :func:`route_index`), so a value can never be filed into one child by one
    code path and a different child by another — boundary values included.
    Routing is a ``searchsorted`` against :func:`partition_bounds` (pure
    comparisons, no float arithmetic), so a value inside the node's range is
    guaranteed to land in a child whose closed ``key_range`` contains it; a
    value on an interior bound belongs to the right-hand child.  Values
    outside the node's range are clamped to the first/last child so
    out-of-domain inserts still land somewhere sensible (they become
    outliers of the edge leaves).
    """
    bounds = partition_bounds(key_range, fanout)
    if key_range.width <= 0:
        return np.zeros(len(values), dtype=np.int64)
    return np.searchsorted(np.asarray(bounds[1:-1]), values,
                           side="right").astype(np.int64)


def route_index(value: float, key_range: KeyRange, fanout: int) -> int:
    """Scalar :func:`route_indices`.

    ``bisect_right`` over the same :func:`partition_bounds` floats the
    vectorised path searches — comparisons only, so the scalar and batched
    paths agree on every input by construction.
    ``tests/test_trs_tree.py`` pins this parity property.
    """
    bounds = partition_bounds(key_range, fanout)
    if key_range.width <= 0:
        return 0
    return bisect.bisect_right(bounds, value, 1, fanout) - 1


class TRSNode:
    """Common state of leaf and internal TRS-Tree nodes."""

    __slots__ = ("key_range", "height", "parent")

    def __init__(self, key_range: KeyRange, height: int,
                 parent: "TRSInternalNode | None" = None) -> None:
        self.key_range = key_range
        self.height = height
        self.parent = parent

    @property
    def is_leaf(self) -> bool:
        """Whether the node is a leaf."""
        raise NotImplementedError

    def walk(self) -> Iterator["TRSNode"]:
        """Depth-first iteration over the subtree rooted at this node."""
        raise NotImplementedError


class TRSLeafNode(TRSNode):
    """A leaf: fitted model + outlier buffer over a target sub-range.

    Attributes:
        model: The fitted mapping from target to host values (any
            :class:`~repro.core.regression.LeafModel` family).
        outliers: Tuples not covered by ``model``.
        num_covered: Number of tuples in the leaf's range at (re)build time.
        num_model_covered: Monotone count of band-covered placements —
            build-time covered tuples plus covered inserts/update targets.
            Deliberately never decremented (the band keeps no per-tuple
            record, so a covered delete cannot be validated; see
            ``TRSTree._remove_from_leaf``), which makes it an upper bound:
            zero is only reachable when no covered tuple was ever placed.
            A leaf with ``num_model_covered == 0`` (built empty,
            all-outlier, or demoted to
            :class:`~repro.core.regression.OutlierOnlyModel`) holds no tuple
            behind its band, so lookups skip its host range entirely.
        fp_estimate: Build-time estimate of the false-positive candidates a
            probe spanning the leaf would drag in (band width x the leaf's
            own host density); feeds the planner's pre-observation
            false-positive prior through
            :meth:`~repro.core.trs_tree.TRSTree.estimated_fp_ratio`.
        num_inserted: Tuples inserted into the range since the last rebuild.
        num_deleted: Tuples deleted from the range since the last rebuild.
    """

    __slots__ = ("model", "outliers", "num_covered", "num_model_covered",
                 "fp_estimate", "num_inserted", "num_deleted")

    def __init__(self, key_range: KeyRange, height: int, model: LeafModel,
                 parent: "TRSInternalNode | None" = None) -> None:
        super().__init__(key_range, height, parent)
        self.model = model
        self.outliers = OutlierBuffer()
        self.num_covered = 0
        self.num_model_covered = 0
        self.fp_estimate = 0.0
        self.num_inserted = 0
        self.num_deleted = 0

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def population(self) -> int:
        """Best estimate of the number of live tuples in the leaf's range."""
        return max(0, self.num_covered + self.num_inserted - self.num_deleted)

    def covers(self, target_value: float, host_value: float) -> bool:
        """Whether the model's confidence band covers ``(target, host)``."""
        return self.model.covers(target_value, host_value)

    def covers_many(self, target_values, host_values):
        """Vectorised :meth:`covers` over aligned value arrays."""
        return self.model.covers_many(target_values, host_values)

    def outlier_ratio(self) -> float:
        """Current ratio of outliers to tuples in the leaf's range."""
        population = self.population
        if population <= 0:
            return 0.0
        return len(self.outliers) / population

    def deleted_ratio(self) -> float:
        """Ratio of deletions since the last rebuild to the build population."""
        if self.num_covered <= 0:
            return 0.0
        return self.num_deleted / self.num_covered

    def walk(self) -> Iterator[TRSNode]:
        yield self

    def __repr__(self) -> str:
        return (
            f"TRSLeafNode(range=[{self.key_range.low:.3g}, {self.key_range.high:.3g}], "
            f"model={type(self.model).__name__}, eps={self.model.epsilon:.3g}, "
            f"outliers={len(self.outliers)})"
        )


class TRSInternalNode(TRSNode):
    """An internal node routing writes to its equal-width children."""

    __slots__ = ("children", "_bounds", "_interior_bounds_array")

    def __init__(self, key_range: KeyRange, height: int,
                 parent: "TRSInternalNode | None" = None) -> None:
        super().__init__(key_range, height, parent)
        self.children: list[TRSNode] = []
        self._bounds: list[float] | None = None
        self._interior_bounds_array: np.ndarray | None = None

    def _routing_bounds(self) -> list[float]:
        """The node's :func:`partition_bounds`, computed once and cached.

        The fanout and key range are fixed for the node's lifetime
        (reorganization replaces whole nodes), so the bounds — the floats
        every routing decision compares against — never change.
        """
        if self._bounds is None:
            self._bounds = partition_bounds(self.key_range, len(self.children))
            self._interior_bounds_array = np.asarray(self._bounds[1:-1])
        return self._bounds

    def child_for(self, target_value: float) -> TRSNode:
        """The child whose range contains ``target_value``.

        The same comparison-based rule as :func:`route_index` (bisect over
        the cached :func:`partition_bounds`), so the scalar traversal agrees
        with construction-time partitioning and batched-insert routing on
        every value, boundary values included.
        """
        if not self.children:
            raise ValueError("internal node has no children")
        bounds = self._routing_bounds()
        if self.key_range.width <= 0:
            return self.children[0]
        position = bisect.bisect_right(bounds, target_value,
                                       1, len(self.children)) - 1
        return self.children[position]

    def route_batch(self, values: np.ndarray) -> np.ndarray:
        """Child positions for a value batch (cached-bounds searchsorted)."""
        self._routing_bounds()
        if self.key_range.width <= 0:
            return np.zeros(len(values), dtype=np.int64)
        return np.searchsorted(self._interior_bounds_array, values,
                               side="right").astype(np.int64)

    @property
    def is_leaf(self) -> bool:
        return False

    def replace_child(self, old: TRSNode, new: TRSNode) -> None:
        """Swap ``old`` for ``new`` in the child list (used by reorganization)."""
        for position, child in enumerate(self.children):
            if child is old:
                self.children[position] = new
                new.parent = self
                return
        raise ValueError("node to replace is not a child of this internal node")

    def walk(self) -> Iterator[TRSNode]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"TRSInternalNode(range=[{self.key_range.low:.3g}, "
            f"{self.key_range.high:.3g}], children={len(self.children)})"
        )


def equal_width_subranges(key_range: KeyRange, fanout: int) -> list[KeyRange]:
    """Split ``key_range`` into ``fanout`` equal-width sub-ranges.

    The sub-ranges are treated as half-open internally (a value on a boundary
    belongs to the right-hand child) except that the last child also includes
    the range's upper bound, so the union always covers the parent exactly.
    Built from the same :func:`partition_bounds` floats that
    :func:`route_indices` compares against, so every routed in-range value
    lies inside its child's closed range — the containment the lookup's
    probe of the leaf bounds relies on.
    """
    bounds = partition_bounds(key_range, fanout)
    return [KeyRange(bounds[i], bounds[i + 1]) for i in range(fanout)]
