"""Reference answers the tests compare the engine against.

``scan_locations`` is deliberately independent of every index, mechanism
and executor: one NumPy mask over a projection of the live rows.
``trs_lookup_bfs`` answers a TRS-Tree lookup from the pointer tree alone.
``bptree_bulk_load`` packs a B+-tree entry by entry, the way the tree's own
loader did before ``insert_many`` into an empty tree became the load.
``assert_locations`` checks a ``QueryResult`` against the result contract.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.node import TRSInternalNode, TRSLeafNode, TRSNode
from repro.core.trs_tree import TRSLookupResult, TRSTree
from repro.index.base import KeyRange
from repro.index.bptree import BPlusTree, _InternalNode, _LeafNode
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


def bptree_bulk_load(tree: BPlusTree, pairs) -> None:
    """Pack an empty B+-tree from (key, tid) pairs, one entry at a time —
    the oracle for ``BPlusTree._pack``.

    ``BPlusTree.bulk_load`` as it shipped before the array-native packer,
    moved here verbatim (``tree`` for ``self``; the non-empty guard went
    with the method): sort the pairs through a key function, append entry
    by entry into leaves at ~70% fill, build the internal levels bottom-up.
    """
    ordered = sorted(((float(k), t) for k, t in pairs), key=lambda p: p[0])
    if not ordered:
        return
    fill = max(4, int(tree.node_capacity * 0.7))
    leaves: list[_LeafNode] = []
    current = _LeafNode()
    for key, tid in ordered:
        if current.keys and current.keys[-1] == key:
            current.values[-1].append(tid)
        else:
            if len(current.keys) >= fill:
                leaves.append(current)
                fresh = _LeafNode()
                current.next_leaf = fresh
                current = fresh
            current.keys.append(key)
            current.values.append([tid])
        tree._num_entries += 1
    leaves.append(current)

    level = list(leaves)
    tree._height = 1
    while len(level) > 1:
        parents = []
        for start in range(0, len(level), fill):
            group = level[start:start + fill]
            if len(group) == 1:
                parents.append(group[0])
                continue
            parent = _InternalNode()
            parent.children = list(group)
            parent.keys = [tree._smallest_key(child) for child in group[1:]]
            parents.append(parent)
        level = parents
        tree._height += 1
    tree._root = level[0]
    tree._flat_view.drop()
