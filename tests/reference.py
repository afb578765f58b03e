"""Reference answers the tests compare the engine against.

``scan_locations`` is deliberately independent of every index, mechanism
and executor: one NumPy mask over a projection of the live rows.
``trs_lookup_bfs`` answers a TRS-Tree lookup from the pointer tree alone.
``assert_locations`` checks a ``QueryResult`` against the result contract.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.node import TRSInternalNode, TRSLeafNode, TRSNode
from repro.core.trs_tree import TRSLookupResult, TRSTree
from repro.index.base import KeyRange
from repro.storage.table import Table


def scan_locations(table: Table, *predicates) -> list[int]:
    """Sorted locations of the live rows satisfying every predicate.

    ``predicates`` are objects with ``column`` / ``low`` / ``high``
    (:class:`~repro.engine.query.RangePredicate`); bounds are inclusive.
    """
    columns = [predicate.column for predicate in predicates]
    slots, *values = table.project(columns)
    mask = np.ones(slots.shape, dtype=bool)
    for predicate, column_values in zip(predicates, values):
        mask &= (column_values >= predicate.low) & (column_values <= predicate.high)
    return sorted(int(slot) for slot in slots[mask])


def assert_locations(result, expected) -> None:
    """The result contract: ``locations`` is a sorted, duplicate-free int64
    ``ndarray`` — and here it equals ``expected``."""
    found = result.locations
    assert isinstance(found, np.ndarray), type(found)
    assert found.dtype == np.int64 and found.ndim == 1
    assert bool(np.all(np.diff(found) > 0)), "not sorted and duplicate-free"
    assert found.tolist() == list(expected)


def trs_lookup_bfs(tree: TRSTree, predicate: KeyRange) -> TRSLookupResult:
    """Algorithm 2 as a walk of the pointer tree — the oracle for the flat
    ``TRSTree.lookup`` / ``lookup_many``.

    The BFS lookup the tree shipped before its flat leaf table, moved here
    verbatim (``tree._root`` for ``self._root``; the outlier probe reads
    the buffer's pairs, the buffer's own range lookup having gone with it).
    Nodes on the left/right edge of the tree are treated as open-ended:
    values inserted after construction that fall outside the originally
    observed target domain are routed (clamped) into the edge leaves'
    outlier buffers, so lookups whose predicate extends beyond the built
    domain must still visit those leaves.
    """
    result = TRSLookupResult(outlier_tids=[])
    if tree._root is None:
        return result
    # Queue entries carry (node, is_left_edge, is_right_edge).
    queue: deque[tuple[TRSNode, bool, bool]] = deque([(tree._root, True, True)])
    while queue:
        node, left_edge, right_edge = queue.popleft()
        result.nodes_visited += 1
        effective = KeyRange(
            float("-inf") if left_edge else node.key_range.low,
            float("inf") if right_edge else node.key_range.high,
        )
        if node.is_leaf:
            leaf: TRSLeafNode = node  # type: ignore[assignment]
            overlap = effective.intersect(predicate)
            if overlap is None:
                continue
            result.leaves_visited += 1
            # ``overlap`` is clipped to the predicate (finite) but may
            # extend beyond the leaf's built range on the tree's edges;
            # extrapolating the model's band there mirrors the insert
            # path, which uses the same band to decide whether an
            # out-of-domain tuple needs an outlier entry.  A leaf whose
            # band covers no tuple (built empty, all-outlier, or demoted
            # to an outlier-only model) holds nothing behind its host
            # range — emitting it would only hand the host index a
            # spurious probe per empty leaf.
            if leaf.num_model_covered > 0:
                result.host_ranges.append(leaf.model.host_range(overlap))
            result.outlier_tids.extend(
                tid for value, tid in leaf.outliers.items()
                if overlap.low <= value <= overlap.high)
        else:
            internal: TRSInternalNode = node  # type: ignore[assignment]
            last = len(internal.children) - 1
            for position, child in enumerate(internal.children):
                child_left = left_edge and position == 0
                child_right = right_edge and position == last
                child_range = KeyRange(
                    float("-inf") if child_left else child.key_range.low,
                    float("inf") if child_right else child.key_range.high,
                )
                if child_range.overlaps(predicate):
                    queue.append((child, child_left, child_right))
    result.host_ranges = KeyRange.union(result.host_ranges)
    return result
