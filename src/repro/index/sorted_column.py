"""Sorted-column index: a ``searchsorted``-backed array index.

The structure is two parallel numpy arrays — keys (sorted ascending) and the
tuple identifiers stored under them — probed with ``np.searchsorted``.  Point
and range lookups are O(log n) binary searches followed by a contiguous slice,
which makes it the cheapest possible host index for the vectorized Hermit
lookup path: a range probe returns a *view* of the tid array with no per-entry
Python object traffic at all.

It is a read-optimised structure.  :meth:`insert_many` into an empty index
builds it in one ``argsort``; incremental :meth:`insert`/:meth:`delete` keep the arrays sorted
with ``np.insert``/``np.delete`` and therefore cost O(n) per operation, which
is acceptable for the paper's read-heavy workloads (maintenance traffic is
orders of magnitude rarer than lookups) but makes it the wrong choice for
write-heavy tables — use the B+-tree there.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, KeyRanges
from repro.segments import empty_offsets, run_indices
from repro.storage.identifiers import TupleId
from repro.storage.memory import sorted_array_bytes


class SortedColumnIndex(Index):
    """A non-unique sorted-array index mapping numeric keys to tuple ids."""

    def __init__(self) -> None:
        super().__init__()
        self._keys = np.empty(0, dtype=np.float64)
        self._tids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ write

    def insert(self, key: float, tid: TupleId) -> None:
        """Insert ``key -> tid``, keeping the arrays sorted (O(n))."""
        self.stats.inserts += 1
        key = float(key)
        if (np.issubdtype(self._tids.dtype, np.integer)
                and isinstance(tid, float) and not tid.is_integer()):
            # Logical pointers are primary-key values and may be fractional.
            self._tids = self._tids.astype(np.float64)
        position = int(np.searchsorted(self._keys, key, side="right"))
        self._keys = np.insert(self._keys, position, key)
        self._tids = np.insert(self._tids, position, tid)

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Batched insert: sort the batch once, merge it in one pass.

        ``np.searchsorted`` locates every insertion point at once and a
        single ``np.insert`` splices the whole batch, so a bulk write costs
        O(n + m log m) instead of the O(n·m) of m scalar inserts.
        """
        keys = np.asarray(keys, dtype=np.float64)
        tids = np.asarray(tids)
        if keys.shape != tids.shape:
            raise StorageError("keys and tids must have equal length")
        if keys.size == 0:
            return
        self.stats.inserts += int(keys.size)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        tids = tids[order]
        if not self._keys.size:
            self._keys = keys
            self._tids = tids
            return
        # Logical pointers are primary-key values and may be fractional.
        dtype = np.result_type(self._tids.dtype, tids.dtype)
        positions = np.searchsorted(self._keys, keys, side="right")
        self._keys = np.insert(self._keys, positions, keys)
        self._tids = np.insert(self._tids.astype(dtype, copy=False),
                               positions, tids)

    def delete(self, key: float, tid: TupleId) -> None:
        """Remove one occurrence of ``key -> tid`` (O(n)).

        Raises:
            KeyNotFoundError: If the pair is not present.
        """
        self.stats.deletes += 1
        key = float(key)
        start, stop = self._bounds(key, key)
        if start == stop:
            raise KeyNotFoundError(f"key {key!r} is not in the index")
        run = self._tids[start:stop]
        matches = np.flatnonzero(run == tid)
        if not matches.size:
            raise KeyNotFoundError(f"tid {tid!r} is not stored under key {key!r}")
        position = start + int(matches[0])
        self._keys = np.delete(self._keys, position)
        self._tids = np.delete(self._tids, position)

    # ------------------------------------------------------------------- read

    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe: one vectorized double-searchsorted.

        The result may be a read-only view of the index's internal array.
        """
        keys = np.asarray(keys, dtype=np.float64)
        self.stats.lookups += int(keys.size)
        if not keys.size or not self._keys.size:
            return np.empty(0, dtype=self._tids.dtype)
        starts = np.searchsorted(self._keys, keys, side="left")
        stops = np.searchsorted(self._keys, keys, side="right")
        runs = [self._run(start, stop) for start, stop in zip(starts, stops)
                if stop > start]
        if not runs:
            return np.empty(0, dtype=self._tids.dtype)
        if len(runs) == 1:
            return runs[0]
        return np.concatenate(runs)

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """Contiguous tid slice for a closed range: two binary searches.

        The result is a zero-copy *read-only* view of the index's internal
        tid array — writing through it would silently corrupt the key → tid
        association, so the view is locked.
        """
        self.stats.range_lookups += 1
        start, stop = self._bounds(key_range.low, key_range.high)
        return self._run(start, stop)

    def range_search_many_array(self, ranges: Sequence[KeyRange]) -> np.ndarray:
        """Union over several ranges with one vectorized searchsorted pair."""
        if not ranges:
            return np.empty(0, dtype=self._tids.dtype)
        self.stats.range_lookups += len(ranges)
        lows = np.asarray([key_range.low for key_range in ranges])
        highs = np.asarray([key_range.high for key_range in ranges])
        starts = np.searchsorted(self._keys, lows, side="left")
        stops = np.searchsorted(self._keys, highs, side="right")
        runs = [self._run(start, stop) for start, stop in zip(starts, stops)
                if stop > start]
        if not runs:
            return np.empty(0, dtype=self._tids.dtype)
        if len(runs) == 1:
            return runs[0]
        return np.concatenate(runs)

    def range_search_segmented(
        self, ranges: "KeyRanges | Sequence[KeyRange]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented multi-range probe: two searchsorted calls, one gather.

        Every range's bounds are located in one vectorized ``searchsorted``
        pair and the matching tid runs are pulled out with a single
        multi-arange fancy index — a whole batch of range probes costs a
        constant number of numpy passes, no per-range Python at all.
        """
        ranges = KeyRanges.of(ranges)
        if not len(ranges):
            return np.empty(0, dtype=self._tids.dtype), empty_offsets(0)
        self.stats.range_lookups += len(ranges)
        starts = np.searchsorted(self._keys, ranges.lows, side="left")
        stops = np.searchsorted(self._keys, ranges.highs, side="right")
        indices, offsets = run_indices(starts, stops)
        return self._tids[indices], offsets

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (key, tid) pairs in key order."""
        for key, tid in zip(self._keys.tolist(), self._tids.tolist()):
            yield key, tid

    # ------------------------------------------------------------- accounting

    @property
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""
        return int(self._keys.size)

    def memory_bytes(self) -> int:
        """Analytic size in bytes (two packed parallel arrays)."""
        return sorted_array_bytes(self.num_entries)

    # ---------------------------------------------------------------- private

    def _bounds(self, low: float, high: float) -> tuple[int, int]:
        start = int(np.searchsorted(self._keys, low, side="left"))
        stop = int(np.searchsorted(self._keys, high, side="right"))
        return start, stop

    def _run(self, start: int, stop: int) -> np.ndarray:
        """Read-only zero-copy view of one contiguous tid run."""
        run = self._tids[start:stop].view()
        run.flags.writeable = False
        return run
