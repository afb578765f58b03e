"""Page-based B+-tree over the buffer pool.

This is the secondary/host index of the disk-based substrate (the PostgreSQL
stand-in used for Figure 24).  Every tree node occupies exactly one page of the
simulated disk, so each node visited during a descent or a leaf-chain scan
costs one buffer-pool request — a hit when cached, a charged page read when
not.  This is what makes the simulated cost breakdown of disk-based lookups
meaningful.

Node payloads are stored as the single "row" of their page:
``("L", keys, value_lists, next_leaf_page)`` for leaves and
``("I", keys, child_page_ids)`` for internal nodes.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterator, Sequence

import bisect

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, tid_items
from repro.storage.buffer_pool import BufferPool
from repro.storage.identifiers import TupleId
from repro.storage.memory import btree_bytes

_LEAF = "L"
_INTERNAL = "I"


class PagedBPlusTree(Index):
    """A non-unique B+-tree whose nodes live in buffer-pool pages.

    Args:
        buffer_pool: Pool providing access to the simulated disk.
        node_capacity: Maximum number of keys per node before it splits.
    """

    def __init__(self, buffer_pool: BufferPool,
                 node_capacity: int = 64) -> None:
        if node_capacity < 4:
            raise ValueError("node_capacity must be at least 4")
        self.pool = buffer_pool
        self.node_capacity = node_capacity
        self._num_entries = 0
        self._height = 1
        self._num_nodes = 1
        self._root_page = self._new_node(_LEAF, [], [], None)

    # ----------------------------------------------------------- node storage

    def _new_node(self, kind: str, keys: list, payload: list,
                  next_leaf: int | None) -> int:
        page = self.pool.new_page(capacity=1)
        page.rows = [(kind, keys, payload, next_leaf)]
        self.pool.unpin_page(page.page_id, dirty=True)
        return page.page_id

    def _read_node(self, page_id: int) -> tuple[str, list, list, int | None]:
        page = self.pool.fetch_page(page_id)
        try:
            kind, keys, payload, next_leaf = page.rows[0]
        finally:
            self.pool.unpin_page(page_id)
        return kind, keys, payload, next_leaf

    def _write_node(self, page_id: int, kind: str, keys: list, payload: list,
                    next_leaf: int | None) -> None:
        page = self.pool.fetch_page(page_id)
        try:
            page.rows[0] = (kind, keys, payload, next_leaf)
        finally:
            self.pool.unpin_page(page_id, dirty=True)

    # ------------------------------------------------------------------ write

    def insert(self, key: float, tid: TupleId) -> None:
        """Insert ``key -> tid``."""
        old_root = self._root_page
        split = self._insert_recursive(self._root_page, float(key), tid)
        if split is not None:
            separator, right_page = split
            self._root_page = self._new_node(
                _INTERNAL, [separator], [old_root, right_page], None
            )
            self._num_nodes += 1
            self._height += 1
        self._num_entries += 1

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Batched insert: sort once, merge into leaf pages run by run.

        The sorted batch is partitioned down the tree, every touched leaf
        page is read and written exactly once (instead of once per key),
        and overfull pages split into as many new pages as the batch
        requires.
        """
        keys = np.asarray(keys, dtype=np.float64)
        items = tid_items(tids)
        if keys.size != len(items):
            raise StorageError("keys and tids must have equal length")
        if keys.size == 0:
            return
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order].tolist()
        sorted_tids = [items[position] for position in order.tolist()]
        splits = self._merge_into_page(self._root_page, sorted_keys, sorted_tids)
        while splits:
            old_root = self._root_page
            separators = [separator for separator, _ in splits]
            children = [old_root] + [page for _, page in splits]
            self._root_page = self._new_node(_INTERNAL, separators, children, None)
            self._num_nodes += 1
            self._height += 1
            if len(separators) > self.node_capacity:
                splits = self._multi_split_internal_page(self._root_page)
            else:
                splits = None
        self._num_entries += int(keys.size)

    def delete_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Remove one entry per aligned ``keys[i] -> tids[i]``, one
        page-charged descent each, once every pair is checked: a pair
        listed more often than it is stored is a ``KeyNotFoundError``."""
        keys = np.asarray(keys, dtype=np.float64).tolist()
        pairs = list(zip(keys, tid_items(tids)))
        if len(pairs) != len(keys) or len(pairs) != len(tids):
            raise StorageError("keys and tids must have equal length")
        for (key, tid), listed in Counter(pairs).items():
            if self.search_many([key]).tolist().count(tid) < listed:
                raise KeyNotFoundError(f"tid {tid!r} is not stored under {key!r}")
        for key, tid in pairs:
            leaf_page = self._find_leaf(key)
            kind, node_keys, values, next_leaf = self._read_node(leaf_page)
            index = bisect.bisect_left(node_keys, key)
            values[index].remove(tid)
            if not values[index]:
                node_keys.pop(index)
                values.pop(index)
            self._write_node(leaf_page, kind, node_keys, values, next_leaf)
        self._num_entries -= len(pairs)

    # ------------------------------------------------------------------- read

    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe: one page-charged descent per key."""
        keys = np.asarray(keys, dtype=np.float64).tolist()
        runs: list[list[TupleId]] = []
        # repro: ignore[REP004] -- per-key descent is the tree's point-probe
        # primitive; every node visited is one charged buffer-pool request
        for key in keys:
            _, node_keys, values, _ = self._read_node(self._find_leaf(key))
            index = bisect.bisect_left(node_keys, key)
            if index < len(node_keys) and node_keys[index] == key:
                runs.append(values[index])
        flat = list(chain.from_iterable(runs))
        if not flat:
            return np.empty(0, dtype=np.int64)
        return np.asarray(flat)

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """Closed-range scan: gather whole leaf-page runs, convert once.

        Each visited leaf page contributes its matching ``values[start:stop]``
        slice (two bisects per page), the per-key tid lists are flattened
        with one C-level ``chain`` pass and converted to a single numpy
        array.  Every node of the descent and every visited leaf costs
        exactly one buffer-pool request, which is what the simulated disk
        cost breakdown (Figure 24) counts.
        """
        runs: list[list[TupleId]] = []
        leaf_page: int | None = self._find_leaf(key_range.low)
        first = True
        while leaf_page is not None:
            _, keys, values, next_leaf = self._read_node(leaf_page)
            start = bisect.bisect_left(keys, key_range.low) if first else 0
            first = False
            stop = bisect.bisect_right(keys, key_range.high, start)
            runs.extend(values[start:stop])
            if stop < len(keys):
                break
            leaf_page = next_leaf
        flat = list(chain.from_iterable(runs))
        if not flat:
            return np.empty(0, dtype=np.int64)
        return np.asarray(flat)

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (key, tid) pairs in key order."""
        leaf_page: int | None = self._leftmost_leaf()
        while leaf_page is not None:
            _, keys, values, next_leaf = self._read_node(leaf_page)
            for key, tids in zip(keys, values):
                for tid in tids:
                    yield key, tid
            leaf_page = next_leaf

    # ------------------------------------------------------------- accounting

    @property
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""
        return self._num_entries

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes (= pages) allocated."""
        return self._num_nodes

    @property
    def height(self) -> int:
        """Number of levels, including the leaf level."""
        return self._height

    def memory_bytes(self) -> int:
        """Analytic size in bytes, charged like the in-memory B+-tree."""
        return btree_bytes(self._num_entries, self.node_capacity)

    def disk_bytes(self) -> int:
        """On-disk footprint of the tree."""
        return self._num_nodes * self.pool.disk.page_size

    # ---------------------------------------------------------------- private

    def _find_leaf(self, key: float) -> int:
        page_id = self._root_page
        while True:
            kind, keys, payload, _ = self._read_node(page_id)
            if kind == _LEAF:
                return page_id
            index = bisect.bisect_right(keys, key)
            page_id = payload[index]

    def _leftmost_leaf(self) -> int:
        page_id = self._root_page
        while True:
            kind, _, payload, _ = self._read_node(page_id)
            if kind == _LEAF:
                return page_id
            page_id = payload[0]

    def _insert_recursive(self, page_id: int, key: float,
                          tid: TupleId) -> tuple[float, int] | None:
        kind, keys, payload, next_leaf = self._read_node(page_id)
        if kind == _LEAF:
            index = bisect.bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                payload[index].append(tid)
                self._write_node(page_id, kind, keys, payload, next_leaf)
                return None
            keys.insert(index, key)
            payload.insert(index, [tid])
            if len(keys) <= self.node_capacity:
                self._write_node(page_id, kind, keys, payload, next_leaf)
                return None
            return self._split_leaf(page_id, keys, payload, next_leaf)

        index = bisect.bisect_right(keys, key)
        split = self._insert_recursive(payload[index], key, tid)
        if split is None:
            return None
        separator, right_page = split
        keys.insert(index, separator)
        payload.insert(index + 1, right_page)
        if len(keys) <= self.node_capacity:
            self._write_node(page_id, kind, keys, payload, None)
            return None
        return self._split_internal(page_id, keys, payload)

    def _merge_into_page(self, page_id: int, keys: list[float],
                         tids: list) -> list[tuple[float, int]] | None:
        """Merge a sorted run into the subtree at ``page_id`` (batch insert).

        Returns ascending (separator, new page id) pairs for the caller to
        splice in, or ``None`` when the page absorbed the run.
        """
        kind, node_keys, payload, next_leaf = self._read_node(page_id)
        if kind == _LEAF:
            return self._merge_into_leaf_page(page_id, node_keys, payload,
                                              next_leaf, keys, tids)
        boundaries = [bisect.bisect_left(keys, separator)
                      for separator in node_keys]
        starts = [0] + boundaries
        stops = boundaries + [len(keys)]
        changed = False
        for position in range(len(payload) - 1, -1, -1):
            start, stop = starts[position], stops[position]
            if start == stop:
                continue
            splits = self._merge_into_page(payload[position],
                                           keys[start:stop], tids[start:stop])
            if splits:
                node_keys[position:position] = [s for s, _ in splits]
                payload[position + 1:position + 1] = [p for _, p in splits]
                changed = True
        if len(node_keys) <= self.node_capacity:
            if changed:
                self._write_node(page_id, _INTERNAL, node_keys, payload, None)
            return None
        self._write_node(page_id, _INTERNAL, node_keys, payload, None)
        return self._multi_split_internal_page(page_id)

    def _merge_into_leaf_page(self, page_id: int, node_keys: list,
                              node_values: list, next_leaf: int | None,
                              keys: list[float],
                              tids: list) -> list[tuple[float, int]] | None:
        """Two-pointer merge into one leaf page, multi-splitting if overfull."""
        merged_keys: list[float] = []
        merged_values: list[list[TupleId]] = []
        i = j = 0
        n, m = len(node_keys), len(keys)
        while i < n or j < m:
            if j >= m or (i < n and node_keys[i] <= keys[j]):
                merged_keys.append(node_keys[i])
                merged_values.append(node_values[i])
                i += 1
            elif merged_keys and merged_keys[-1] == keys[j]:
                merged_values[-1].append(tids[j])
                j += 1
            else:
                merged_keys.append(keys[j])
                merged_values.append([tids[j]])
                j += 1
        if len(merged_keys) <= self.node_capacity:
            self._write_node(page_id, _LEAF, merged_keys, merged_values,
                             next_leaf)
            return None
        fill = max(4, int(self.node_capacity * 0.7))
        chunk_starts = list(range(fill, len(merged_keys), fill))
        # Build the new right siblings back-to-front so each page can be
        # created with its successor's id already known.
        successor = next_leaf
        siblings: list[tuple[float, int]] = []
        for start in reversed(chunk_starts):
            new_page = self._new_node(
                _LEAF, merged_keys[start:start + fill],
                merged_values[start:start + fill], successor,
            )
            self._num_nodes += 1
            siblings.append((merged_keys[start], new_page))
            successor = new_page
        siblings.reverse()
        self._write_node(page_id, _LEAF, merged_keys[:fill],
                         merged_values[:fill], successor)
        return siblings

    def _multi_split_internal_page(self, page_id: int) -> list[tuple[float, int]]:
        """Split an overfull internal page into as many pages as needed."""
        kind, all_keys, all_children, _ = self._read_node(page_id)
        fill = max(4, int(self.node_capacity * 0.7))
        step = fill + 1  # children per resulting page
        siblings: list[tuple[float, int]] = []
        for start in range(step, len(all_children), step):
            stop = min(len(all_children), start + step)
            new_page = self._new_node(
                _INTERNAL, all_keys[start:start + (stop - start) - 1],
                all_children[start:stop], None,
            )
            self._num_nodes += 1
            siblings.append((all_keys[start - 1], new_page))
        self._write_node(page_id, kind, all_keys[:fill], all_children[:step],
                         None)
        return siblings

    def _split_leaf(self, page_id: int, keys: list, values: list,
                    next_leaf: int | None) -> tuple[float, int]:
        middle = len(keys) // 2
        right_page = self._new_node(_LEAF, keys[middle:], values[middle:], next_leaf)
        self._num_nodes += 1
        self._write_node(page_id, _LEAF, keys[:middle], values[:middle], right_page)
        return keys[middle], right_page

    def _split_internal(self, page_id: int, keys: list,
                        children: list) -> tuple[float, int]:
        middle = len(keys) // 2
        separator = keys[middle]
        right_page = self._new_node(
            _INTERNAL, keys[middle + 1:], children[middle + 1:], None
        )
        self._num_nodes += 1
        self._write_node(page_id, _INTERNAL, keys[:middle], children[:middle + 1], None)
        return separator, right_page
