"""Outlier buffers of TRS-Tree leaf nodes.

A leaf's linear model does not have to cover every tuple in its range; tuples
whose host value falls outside the confidence band are *outliers* and are kept
in a per-leaf hash table mapping the target-column value to the tuple
identifiers (Section 4.1).  During a lookup the buffer is probed with the
query range and the matching identifiers are returned directly, bypassing the
host index.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import chain
from typing import Iterator

import numpy as np

from repro.index.base import KeyRange, tid_items
from repro.index.flat_view import FlatView
from repro.segments import run_indices
from repro.storage.identifiers import TupleId
from repro.storage.memory import DEFAULT_SIZE_MODEL, SizeModel

# Scalar-path cost of one batched range probe in flat-view
# entry-equivalents (two bisects plus per-call Python overhead); drives
# the same amortisation accounting as the B+-tree's segmented probes.
_PROBE_COST = 8


class OutlierBuffer:
    """Hash table from target-column value to tuple identifiers.

    Point probes (inserts/deletes and point queries) go straight through the
    hash map; range probes use a sorted view of the keys so a lookup costs
    ``O(log k + matches)`` instead of scanning the whole buffer — without
    this, a leaf holding the injected noise of a large table would be scanned
    in full by every range query, which is not how the paper's numbers behave
    (Hermit's throughput is stable up to 10% noise, Figures 16 and 27).
    """

    def __init__(self, size_model: SizeModel = DEFAULT_SIZE_MODEL) -> None:
        self._size_model = size_model
        self._entries: dict[float, list[TupleId]] = defaultdict(list)
        self._sorted_keys: list[float] = []
        self._count = 0
        # Array copy of the buckets for lookup_many: built once batch
        # traffic has paid for the O(k) flatten (demoted leaves can hold a
        # large fraction of the table, so it is not free), then kept
        # current by the mutators below — the same maintained view as
        # BPlusTree's.
        self._flat_view = FlatView()

    def add(self, target_value: float, tid: TupleId) -> None:
        """Record ``tid`` as an outlier with target value ``target_value``."""
        if target_value not in self._entries:
            bisect.insort(self._sorted_keys, target_value)
        self._entries[target_value].append(tid)
        self._count += 1
        self._flat_view.record_insert(target_value, tid)

    def add_many(self, target_values, tids) -> None:
        """Batched :meth:`add`: group by value, extend each bucket once.

        The sorted key view is rebuilt with a single merge of two sorted
        runs instead of one ``insort`` (O(k) memmove) per new key, which is
        what keeps bulk inserts into noisy leaves linear.
        """
        values = np.asarray(target_values, dtype=np.float64)
        items = tid_items(tids)
        count = int(values.size)
        if count == 0:
            return
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        run_starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_values)) + 1]
        )
        run_stops = np.concatenate([run_starts[1:], [count]])
        positions = order.tolist()
        new_keys: list[float] = []
        # repro: ignore[REP004] -- iterates distinct-key runs, not elements;
        # bucket dicts have no array form to extend in one pass
        for start, stop in zip(run_starts.tolist(), run_stops.tolist()):
            value = float(sorted_values[start])
            if value not in self._entries:
                new_keys.append(value)
            self._entries[value].extend(
                items[positions[index]] for index in range(start, stop)
            )
        if new_keys:
            # Both runs are sorted, so Timsort merges them in one pass.
            self._sorted_keys = sorted(self._sorted_keys + new_keys)
        self._count += count
        self._flat_view.record_insert_many(values.tolist(), items)

    def remove(self, target_value: float, tid: TupleId) -> bool:
        """Remove ``tid`` from the bucket of ``target_value``.

        Returns:
            True if the pair was present and removed, False otherwise.  The
            paper's delete path simply "removes the corresponding entry if
            exists", so a miss is not an error.
        """
        tids = self._entries.get(target_value)
        if not tids or tid not in tids:
            return False
        tids.remove(tid)
        if not tids:
            del self._entries[target_value]
            position = bisect.bisect_left(self._sorted_keys, target_value)
            if (position < len(self._sorted_keys)
                    and self._sorted_keys[position] == target_value):
                self._sorted_keys.pop(position)
        self._count -= 1
        self._flat_view.record_delete(target_value, tid)
        return True

    def lookup(self, target_range: KeyRange) -> list[TupleId]:
        """Tuple identifiers whose target value lies in ``target_range``.

        The matching buckets are concatenated in a single C-level pass, so
        the result is one flat list that callers (the vectorized Hermit
        lookup) can hand to ``np.asarray`` without a second copy.
        """
        start = bisect.bisect_left(self._sorted_keys, target_range.low)
        stop = bisect.bisect_right(self._sorted_keys, target_range.high)
        if start == stop:
            return []
        entries = self._entries
        return list(chain.from_iterable(
            entries[key] for key in self._sorted_keys[start:stop]
        ))

    def _flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted keys, per-key tid offsets and flat tids of the buckets.

        The flat view is what makes :meth:`lookup_many` a pure array pass:
        tids are concatenated bucket-by-bucket in key order — exactly the
        order :meth:`lookup` emits — so a batch of range probes reduces to
        two ``searchsorted`` calls and one gather.  Built from the buckets
        once, then kept current by folding in what ``add`` / ``add_many`` /
        ``remove`` recorded since the last call
        (:mod:`repro.index.flat_view`).
        """
        return self._flat_view.arrays(self._buckets)

    def _buckets(self) -> tuple[list[float], list[list[TupleId]]]:
        """Every key and its tid bucket, in key order."""
        entries = self._entries
        return (self._sorted_keys,
                [entries[key] for key in self._sorted_keys])

    def lookup_many(self, lows: np.ndarray, highs: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`lookup`: one segmented result for many ranges.

        Returns ``(tids, offsets)`` in the ``repro.segments`` layout — query
        ``i`` owns ``tids[offsets[i]:offsets[i + 1]]``, in the same key-major
        bucket order as the scalar path.  Small batches on a buffer that
        has no view yet fall back to per-range :meth:`lookup` walks and
        accumulate debt until the cold flatten pays for itself.
        """
        count = int(np.asarray(lows).size)
        if not self._flat_view.worth_using(_PROBE_COST * count, self._count):
            segments: list[list[TupleId]] = []
            offsets = np.zeros(count + 1, dtype=np.int64)
            total = 0
            # repro: ignore[REP004] -- documented scalar fallback while the
            # flat-view debt counter says a cold flatten would cost more
            for position, (low, high) in enumerate(
                    zip(np.asarray(lows).tolist(), np.asarray(highs).tolist())):
                flat = self.lookup(KeyRange(low, high))
                segments.append(flat)
                total += len(flat)
                offsets[position + 1] = total
            self._flat_view.charge(2 * total + _PROBE_COST * count)
            merged = list(chain.from_iterable(segments))
            tids = (np.asarray(merged) if merged
                    else np.empty(0, dtype=np.int64))
            return tids, offsets
        keys, key_offsets, tids = self._flattened()
        starts = np.searchsorted(keys, lows, side="left")
        stops = np.searchsorted(keys, highs, side="right")
        indices, offsets = run_indices(key_offsets[starts], key_offsets[stops])
        return tids[indices], offsets

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (target value, tid) pairs."""
        for value, tids in self._entries.items():
            for tid in tids:
                yield value, tid

    def __len__(self) -> int:
        return self._count

    def __contains__(self, target_value: float) -> bool:
        return target_value in self._entries

    def clear(self) -> None:
        """Drop all outliers."""
        self._entries.clear()
        self._sorted_keys.clear()
        self._count = 0
        self._flat_view.drop()

    def memory_bytes(self) -> int:
        """Analytic size in bytes."""
        return self._size_model.hash_table_bytes(self._count)
