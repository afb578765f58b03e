"""Reference answers the tests compare the engine against.

``scan_locations`` is deliberately independent of every index, mechanism
and executor: one NumPy mask over a projection of the live rows.
``trs_lookup_scan`` answers a TRS-Tree lookup by scanning every leaf, and
``assert_trs_contains`` checks the tree's "never miss" contract pair by pair.
``bptree_bulk_load`` packs a B+-tree entry by entry, the way the tree's own
loader did before ``insert_many`` into an empty tree became the load.
``assert_locations`` checks a ``QueryResult`` against the result contract.
"""

from __future__ import annotations

import numpy as np

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


def trs_lookup_scan(tree: TRSTree, predicate: KeyRange) -> TRSLookupResult:
    """Algorithm 2 as a scan of every leaf — the oracle for ``TRSTree.lookup``
    / ``lookup_many``.

    No ``bisect``, no ``ModelTable``, no coalescing: each leaf's effective
    range (open-ended on the tree's edges, where out-of-domain inserts are
    routed) is intersected with the predicate; an overlapped leaf with a
    covered tuple behind its band emits its own model's ``host_range`` over
    the overlap; the ranges go through ``KeyRange.union``; the outliers are
    the buffer's pairs whose key the predicate holds.
    """
    result = TRSLookupResult(outlier_tids=[])
    table = tree._table
    if table is None:
        return result
    last = len(table.models) - 1
    for row, model in enumerate(table.models):
        effective = KeyRange(
            float("-inf") if row == 0 else table.bounds[row - 1],
            float("inf") if row == last else table.bounds[row])
        overlap = effective.intersect(predicate)
        if overlap is None:
            continue
        result.leaves_visited += 1
        if table.num_model_covered[row] > 0:
            result.host_ranges.append(model.host_range(overlap))
    result.nodes_visited = result.leaves_visited
    result.host_ranges = KeyRange.union(result.host_ranges)
    keys, buckets = tree._outliers.buckets()
    result.outlier_tids = [tid for key, bucket in zip(keys, buckets)
                           if predicate.contains(key) for tid in bucket]
    return result


def assert_trs_contains(tree: TRSTree, targets, hosts, tids) -> None:
    """The paper's "never miss" contract: every live pair with a non-NaN
    target sits behind its leaf's band (and the leaf emits its host range)
    or is in the outlier view under its own key."""
    table = tree._table
    keys, view_tids, _ = tree._outlier_view()
    filed: dict[float, list] = {}
    for key, tid in zip(keys.tolist(), view_tids.tolist()):
        filed.setdefault(key, []).append(tid)
    bounds = np.asarray(table.bounds)
    for target, host, tid in zip(targets, hosts, tids):
        if np.isnan(target):
            continue
        row = int((bounds <= target).sum())
        behind_band = (table.num_model_covered[row] > 0
                       and table.models[row].covers(target, host))
        assert behind_band or tid in filed.get(target, ()), (target, host, tid)


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
