"""In-memory B+-tree.

This is the conventional secondary index the paper calls "Baseline", and it is
also used as the host index and as the primary index of the in-memory engine.
Keys are numeric; the tree is non-unique (several tuple identifiers may be
stored under the same key), which matches how a secondary index on a data
column behaves.

The implementation is a textbook B+-tree: sorted keys inside fixed-capacity
nodes, leaf-level sibling chaining for range scans, top-down descent with
bottom-up splits.  Deletion removes entries but does not rebalance (leaves may
become under-full); this keeps the structure simple and does not affect any of
the reproduced experiments, none of which depend on shrink-side rebalancing.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, KeyRanges, tid_items
from repro.index.flat_view import FlatArrays, FlatView
from repro.segments import offsets_from_counts, run_indices
from repro.storage.identifiers import TupleId
from repro.storage.memory import btree_bytes

DEFAULT_NODE_CAPACITY = 32

# Amortisation accounting for bringing the flat view current (``_view``),
# in flat-view entry-equivalents: the per-probe constants price a
# root-to-leaf descent plus per-call Python overhead, and every entry a
# scalar probe touches is charged ``_TOUCHED_ENTRY_COST`` because the
# fragmented per-range chain/asarray passes cost roughly twice the one bulk
# pass of a flatten.
_RANGE_PROBE_COST = 32
_POINT_PROBE_COST = 8
_TOUCHED_ENTRY_COST = 2


def _tid_array(flat: list[TupleId]) -> np.ndarray:
    """The tids a scalar walk collected as one array (empty: int64)."""
    return np.asarray(flat) if flat else np.empty(0, dtype=np.int64)


def _gathered(tids: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``tids[indices]``, typed like :func:`_tid_array` when nothing hit."""
    return tids[indices] if indices.size else np.empty(0, dtype=np.int64)


def _key_runs(view: FlatArrays, lows, highs):
    """``[start, stop)`` into the view's tids for each closed key range.

    ``lows`` / ``highs`` are two floats or two aligned arrays.
    """
    return view.keys.searchsorted(lows), view.keys.searchsorted(highs, "right")


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[float] = []


class _LeafNode(_Node):
    __slots__ = ("values", "next_leaf")

    def __init__(self) -> None:
        super().__init__()
        # values[i] is the list of tuple ids stored under keys[i]
        self.values: list[list[TupleId]] = []
        self.next_leaf: _LeafNode | None = None

    @property
    def is_leaf(self) -> bool:
        return True


class _InternalNode(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        # len(children) == len(keys) + 1
        self.children: list[_Node] = []

    @property
    def is_leaf(self) -> bool:
        return False


class BPlusTree(Index):
    """A non-unique in-memory B+-tree mapping numeric keys to tuple ids.

    Args:
        node_capacity: Maximum number of keys per node before it splits.
    """

    def __init__(self, node_capacity: int = DEFAULT_NODE_CAPACITY) -> None:
        super().__init__()
        if node_capacity < 4:
            raise ValueError("node_capacity must be at least 4")
        self.node_capacity = node_capacity
        self._root: _Node = _LeafNode()
        self._num_entries = 0
        self._height = 1
        # Array copy of the leaf level that every read entry point probes,
        # handed over by a load (_pack) or built once read traffic has paid
        # for it (_view), and from then on maintained by the mutators below,
        # which record what they wrote for a later probe to fold in
        # (_flattened).
        self._flat_view = FlatView()

    # ------------------------------------------------------------------ write

    def insert(self, key: float, tid: TupleId) -> None:
        """Insert ``key -> tid``; duplicates of the same pair are allowed."""
        self.stats.inserts += 1
        key = float(key)
        split = self._insert_into(self._root, key, tid)
        if split is not None:
            separator, right = split
            new_root = _InternalNode()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._num_entries += 1
        self._flat_view.record_insert(key, tid)

    def delete(self, key: float, tid: TupleId) -> None:
        """Remove one occurrence of ``key -> tid``.

        Raises:
            KeyNotFoundError: If the pair is not present.
        """
        self.stats.deletes += 1
        key = float(key)
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            tids = leaf.values[index]
            try:
                tids.remove(tid)
            except ValueError:
                raise KeyNotFoundError(
                    f"tid {tid!r} is not stored under key {key!r}"
                ) from None
            if not tids:
                leaf.keys.pop(index)
                leaf.values.pop(index)
            self._num_entries -= 1
            self._flat_view.record_delete(key, tid)
            return
        raise KeyNotFoundError(f"key {key!r} is not in the index")

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Batched insert: sort once, merge the run into the leaf level.

        The batch is sorted once and pushed down the tree recursively: each
        internal node partitions the sorted run among its children with one
        bisect per separator, and each touched leaf merges its sorted keys
        with the incoming run in a single two-pointer pass.  Overfull nodes
        split into however many nodes they need in one step (a batch can
        overflow a leaf by far more than one key), so the cost is one
        partition pass plus one merge per touched leaf instead of one root
        descent per key.  An empty tree is loaded instead (:meth:`_pack`).
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size != len(tids):
            raise StorageError("keys and tids must have equal length")
        if keys.size == 0:
            return
        self.stats.inserts += int(keys.size)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if isinstance(tids, np.ndarray):
            tid_array = tids[order]
            sorted_tids = tid_array.tolist()
        else:
            items = tid_items(tids)
            sorted_tids = [items[position] for position in order.tolist()]
            tid_array = None
        if self._num_entries == 0:
            # Loading is what a batch does to an empty tree: packing fresh
            # leaves is strictly better than merging into the one empty leaf.
            self._pack(keys, sorted_tids, tid_array)
            return
        sorted_keys = keys.tolist()
        splits = self._merge_into(self._root, sorted_keys, sorted_tids)
        while splits:
            new_root = _InternalNode()
            new_root.keys = [separator for separator, _ in splits]
            new_root.children = [self._root] + [node for _, node in splits]
            self._root = new_root
            self._height += 1
            splits = (self._multi_split_internal(new_root)
                      if len(new_root.keys) > self.node_capacity else None)
        self._num_entries += int(keys.size)
        self._flat_view.record_insert_many(sorted_keys, sorted_tids)

    def _pack(self, sorted_keys: np.ndarray, sorted_tids: list,
              tid_array: np.ndarray | None) -> None:
        """Build the (empty) tree from a non-empty key-sorted run.

        Distinct keys are packed into leaves at ~70% fill and the internal
        levels are built bottom-up, mirroring the single-thread bulk loading
        the paper uses for the baseline B+-tree.  Run boundaries come from
        one ``!=`` mask over the sorted keys; every leaf is two list slices.
        The run itself — ``sorted_keys`` and ``tid_array``, the caller's tid
        array in the same order (``None`` when the caller passed a list) —
        becomes the flat view, uncopied, so the loaded tree starts with a
        current view.
        """
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_keys[1:] != sorted_keys[:-1])))
        distinct = sorted_keys[starts].tolist()
        if len(distinct) == len(sorted_tids):
            # One tid per key (a primary key, most float columns): no run
            # bounds, whose n int objects would set a load's peak memory.
            values = [[tid] for tid in sorted_tids]
        else:
            bounds = starts.tolist()
            bounds.append(len(sorted_tids))
            values = [sorted_tids[bounds[i]:bounds[i + 1]]
                      for i in range(len(distinct))]
        fill = max(4, int(self.node_capacity * 0.7))
        level: list[_Node] = []
        previous: _LeafNode | None = None
        for start in range(0, len(distinct), fill):
            leaf = _LeafNode()
            leaf.keys = distinct[start:start + fill]
            leaf.values = values[start:start + fill]
            if previous is not None:
                previous.next_leaf = leaf
            level.append(leaf)
            previous = leaf

        self._height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), fill):
                group = level[start:start + fill]
                if len(group) == 1:
                    parents.append(group[0])
                    continue
                parent = _InternalNode()
                parent.children = group
                parent.keys = [self._smallest_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
            self._height += 1
        self._root = level[0]
        self._num_entries = len(sorted_tids)
        self._flat_view.adopt(sorted_keys, sorted_tids, len(distinct),
                              tid_array)

    # ------------------------------------------------------------------- read

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """Closed-range scan: one slice of the flat view while it is current.

        This is the host probe of the single-request lookup: two
        ``searchsorted`` locate the range's key run and the answer is a
        read-only slice of the view's tids.  On an absent or stale view it
        walks the leaf chain instead (:meth:`_view`).
        """
        self.stats.range_lookups += 1
        view = self._view(_RANGE_PROBE_COST, batch=False)
        if view is None:
            tids = _tid_array(self._range_tids(key_range.low, key_range.high))
            self._flat_view.charge(_TOUCHED_ENTRY_COST * tids.size
                                   + _RANGE_PROBE_COST)
            return tids
        start, stop = _key_runs(view, key_range.low, key_range.high)
        if start == stop:
            return np.empty(0, dtype=np.int64)
        run = view.tids[start:stop]
        run.setflags(write=False)
        return run

    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe, tids grouped by key in input order.

        This is the primary-index resolution step of the single-request
        lookup under logical pointers: one ``searchsorted`` and one gather
        over the flat view while it is current, one descent per key while
        it is not (:meth:`_point_runs`).
        """
        keys = np.asarray(keys, dtype=np.float64)
        self.stats.lookups += keys.size
        return self._point_runs(keys, batch=False)[0]

    def range_search_segmented(
        self, ranges: "KeyRanges | Sequence[KeyRange]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented multi-range probe, flat-view-backed once it pays off.

        Where the scalar probe pays a root-to-leaf descent plus a Python
        leaf walk per range, the batch resolves *all* ranges against the
        flat view (:meth:`_flattened`) — two ``searchsorted`` passes
        locate every range's key run and one :func:`~repro.segments.run_indices`
        gather pulls the tids out.  A live view is folded at once; the O(n)
        cold flatten is only worth paying when enough traffic amortises
        it, so small batches on a tree without a view (grown row by row,
        or after the view gave up) keep the per-range leaf walk and
        accumulate debt instead (:meth:`_view`); both paths emit identical
        segments.
        """
        ranges = KeyRanges.of(ranges)
        count = len(ranges)
        self.stats.range_lookups += count
        view = self._view(_RANGE_PROBE_COST * count, batch=True)
        if view is None:
            segments = [self._range_tids(low, high) for low, high in
                        zip(ranges.lows.tolist(), ranges.highs.tolist())]
            tids = _tid_array(list(chain.from_iterable(segments)))
            self._flat_view.charge(_TOUCHED_ENTRY_COST * tids.size
                                   + _RANGE_PROBE_COST * count)
            return tids, offsets_from_counts(
                np.fromiter(map(len, segments), dtype=np.int64, count=count))
        indices, offsets = run_indices(
            *_key_runs(view, ranges.lows, ranges.highs))
        return _gathered(view.tids, indices), offsets

    def search_many_segmented(
        self, keys: np.ndarray, offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batched point probe off the flattened leaf level.

        This is where batching beats per-key descents *algorithmically*,
        not just on dispatch: the whole batch binary-searches the flat
        view in one ``searchsorted`` pass (two where keys repeat) and
        gathers the matching tid runs with one gather
        (:meth:`_point_runs`).  This is the primary-index resolution pass
        of the batched executor under logical pointers.  Probes are
        resolved in input order, so the per-key runs are already grouped
        by input segment and the output offsets are a plain fancy-index
        of the per-key ones.
        """
        keys = np.asarray(keys, dtype=np.float64)
        self.stats.lookups += keys.size
        tids, sizes = self._point_runs(keys, batch=True)
        return tids, offsets_from_counts(np.asarray(sizes))[offsets]

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (key, tid) pairs in key order."""
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            for key, tids in zip(leaf.keys, leaf.values):
                for tid in tids:
                    yield key, tid
            leaf = leaf.next_leaf

    # ------------------------------------------------------------- accounting

    @property
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""
        return self._num_entries

    @property
    def height(self) -> int:
        """Number of levels, including the leaf level."""
        return self._height

    def memory_bytes(self) -> int:
        """Analytic size in bytes (see :mod:`repro.storage.memory`)."""
        return btree_bytes(self._num_entries, self.node_capacity)

    # ---------------------------------------------------------------- private

    def _view(self, projected_cost: int, batch: bool) -> FlatArrays | None:
        """The up-to-date flat view if this probe should go through it.

        ``None`` sends the probe down its scalar body, which charges the
        work to the view's debt: any probe while the view is absent, and a
        single probe while a write has left it stale, until those charges
        have paid for bringing it current
        (:meth:`~repro.index.flat_view.FlatView.worth_using`).
        """
        if self._flat_view.worth_using(projected_cost, self._num_entries,
                                       batch):
            return self._flattened()
        return None

    def _point_runs(self, keys: np.ndarray,
                    batch: bool) -> tuple[np.ndarray, np.ndarray | list[int]]:
        """The tids under ``keys``, grouped in input order, and per-key counts.

        Flat-view body: two ``searchsorted`` bound every key's run and one
        gather pulls the runs out; when the view's keys are distinct (a
        primary index) one ``searchsorted`` places every key, a hit's slot
        *is* its tid's position and its count the hit mask.  Scalar body:
        one root-to-leaf descent per key, charged to the view's debt.
        """
        if not (keys.size and self._num_entries):
            return (np.empty(0, dtype=np.int64),
                    np.zeros(keys.size, dtype=np.int64))
        view = self._view(_POINT_PROBE_COST * keys.size, batch)
        if view is None:
            runs: list[Sequence[TupleId]] = []
            for key in keys.tolist():
                leaf = self._find_leaf(key)
                index = bisect.bisect_left(leaf.keys, key)
                hit = index < len(leaf.keys) and leaf.keys[index] == key
                runs.append(leaf.values[index] if hit else ())
            tids = _tid_array(list(chain.from_iterable(runs)))
            self._flat_view.charge(_TOUCHED_ENTRY_COST * tids.size
                                   + _POINT_PROBE_COST * keys.size)
            return tids, list(map(len, runs))
        flat_keys, tids, num_keys = view
        starts = flat_keys.searchsorted(keys)
        if num_keys == flat_keys.size:
            slots = np.minimum(starts, flat_keys.size - 1)
            hit = flat_keys[slots] == keys
            return _gathered(tids, slots[hit]), hit
        stops = flat_keys.searchsorted(keys, "right")
        return _gathered(tids, run_indices(starts, stops)[0]), stops - starts

    def _range_tids(self, low: float, high: float) -> list[TupleId]:
        """One leaf-chain range walk, as a flat tid list (no stats bump)."""
        runs: list[list[TupleId]] = []
        leaf: _LeafNode | None = self._find_leaf(low)
        start = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            stop = bisect.bisect_right(leaf.keys, high, start)
            runs.extend(leaf.values[start:stop])
            if stop < len(leaf.keys):
                break
            leaf = leaf.next_leaf
            start = 0
        return list(chain.from_iterable(runs))

    def _flattened(self) -> FlatArrays:
        """The leaf level as arrays: ``(keys, tids, num_keys)``.

        One key per entry, ascending, tids in per-key insertion order
        (exactly the order the scalar leaf walk emits), plus the number of
        distinct keys — turns B leaf walks into two ``searchsorted`` calls
        and one gather.  A load hands its sorted run over as the view
        (:meth:`_pack`); after that the arrays are kept current by folding
        in what the mutators recorded since the last call (``d`` recorded
        entries cost ``O(d log n)`` plus two masked copies of the ``n``
        cached ones, not a walk of ``n`` Python objects), and the leaf chain
        is only walked when the view gave up, or for a tree grown without a
        load — see :mod:`repro.index.flat_view`.  The view is a *copy* of
        the leaf contents, so it costs O(n) extra memory (16 bytes an
        entry) while live.
        """
        return self._flat_view.arrays(self._leaf_level)

    def _leaf_level(self) -> tuple[list[float], list[list[TupleId]]]:
        """Every key and its tid bucket, in key order (one leaf-chain walk)."""
        all_keys: list[float] = []
        all_values: list[list[TupleId]] = []
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            all_keys.extend(leaf.keys)
            all_values.extend(leaf.values)
            leaf = leaf.next_leaf
        return all_keys, all_values

    def _find_leaf(self, key: float) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node  # type: ignore[return-value]

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node  # type: ignore[return-value]

    def _smallest_key(self, node: _Node) -> float:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def _insert_into(self, node: _Node, key: float,
                     tid: TupleId) -> tuple[float, _Node] | None:
        if node.is_leaf:
            return self._insert_into_leaf(node, key, tid)  # type: ignore[arg-type]
        internal: _InternalNode = node  # type: ignore[assignment]
        index = bisect.bisect_right(internal.keys, key)
        split = self._insert_into(internal.children[index], key, tid)
        if split is None:
            return None
        separator, right = split
        internal.keys.insert(index, separator)
        internal.children.insert(index + 1, right)
        if len(internal.keys) <= self.node_capacity:
            return None
        return self._split_internal(internal)

    def _insert_into_leaf(self, leaf: _LeafNode, key: float,
                          tid: TupleId) -> tuple[float, _Node] | None:
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index].append(tid)
            return None
        leaf.keys.insert(index, key)
        leaf.values.insert(index, [tid])
        if len(leaf.keys) <= self.node_capacity:
            return None
        return self._split_leaf(leaf)

    def _merge_into(self, node: _Node, keys: list[float],
                    tids: list[TupleId]) -> list[tuple[float, _Node]] | None:
        """Merge a sorted (keys, tids) run into the subtree rooted at ``node``.

        Returns the (separator, new right sibling) pairs the caller must
        splice in, ascending — ``None`` when the node absorbed the run
        without splitting.  Unlike ``_insert_into`` this may return several
        siblings at once.
        """
        if node.is_leaf:
            return self._merge_into_leaf(node, keys, tids)  # type: ignore[arg-type]
        internal: _InternalNode = node  # type: ignore[assignment]
        # Child c receives keys k with separators[c-1] <= k < separators[c],
        # matching the bisect_right descent of the scalar insert.
        boundaries = [bisect.bisect_left(keys, separator)
                      for separator in internal.keys]
        starts = [0] + boundaries
        stops = boundaries + [len(keys)]
        # Walk children right-to-left so splice positions stay valid while
        # separators/children are inserted.
        for position in range(len(internal.children) - 1, -1, -1):
            start, stop = starts[position], stops[position]
            if start == stop:
                continue
            splits = self._merge_into(internal.children[position],
                                      keys[start:stop], tids[start:stop])
            if splits:
                internal.keys[position:position] = [s for s, _ in splits]
                internal.children[position + 1:position + 1] = [
                    n for _, n in splits
                ]
        if len(internal.keys) <= self.node_capacity:
            return None
        return self._multi_split_internal(internal)

    def _merge_into_leaf(self, leaf: _LeafNode, keys: list[float],
                         tids: list[TupleId]) -> list[tuple[float, _Node]] | None:
        """Two-pointer merge of a sorted run into one leaf, multi-splitting."""
        merged_keys: list[float] = []
        merged_values: list[list[TupleId]] = []
        existing_keys, existing_values = leaf.keys, leaf.values
        i = j = 0
        n, m = len(existing_keys), len(keys)
        while i < n or j < m:
            if j >= m or (i < n and existing_keys[i] <= keys[j]):
                merged_keys.append(existing_keys[i])
                merged_values.append(existing_values[i])
                i += 1
            elif merged_keys and merged_keys[-1] == keys[j]:
                merged_values[-1].append(tids[j])
                j += 1
            else:
                merged_keys.append(keys[j])
                merged_values.append([tids[j]])
                j += 1
        if len(merged_keys) <= self.node_capacity:
            leaf.keys, leaf.values = merged_keys, merged_values
            return None
        fill = max(4, int(self.node_capacity * 0.7))
        leaf.keys = merged_keys[:fill]
        leaf.values = merged_values[:fill]
        tail = leaf.next_leaf
        siblings: list[tuple[float, _Node]] = []
        previous = leaf
        for start in range(fill, len(merged_keys), fill):
            sibling = _LeafNode()
            sibling.keys = merged_keys[start:start + fill]
            sibling.values = merged_values[start:start + fill]
            previous.next_leaf = sibling
            siblings.append((sibling.keys[0], sibling))
            previous = sibling
        previous.next_leaf = tail
        return siblings

    def _multi_split_internal(self, node: _InternalNode) -> list[tuple[float, _Node]]:
        """Split an overfull internal node into as many nodes as needed."""
        fill = max(4, int(self.node_capacity * 0.7))
        all_keys, all_children = node.keys, node.children
        step = fill + 1  # children per resulting node
        node.keys = all_keys[:fill]
        node.children = all_children[:step]
        siblings: list[tuple[float, _Node]] = []
        for start in range(step, len(all_children), step):
            stop = min(len(all_children), start + step)
            sibling = _InternalNode()
            sibling.children = all_children[start:stop]
            sibling.keys = all_keys[start:start + (stop - start) - 1]
            # all_keys[start - 1] separates the previous group's last child
            # from this group's first child; it is promoted to the parent.
            siblings.append((all_keys[start - 1], sibling))
        return siblings

    def _split_leaf(self, leaf: _LeafNode) -> tuple[float, _Node]:
        middle = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _InternalNode) -> tuple[float, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _InternalNode()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right
