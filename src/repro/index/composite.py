"""Composite (multi-column) secondary index.

Section 3 of the paper notes that Hermit also covers multi-column indexes:
with a host index on ``(A, N)`` and a correlation between ``M`` and ``N``, a
query on ``(A, M)`` is answered by translating the ``M`` range into an ``N``
range and probing the composite host index.  This module provides that
composite host index for both Hermit and the baseline.

Entries are kept in a single sorted array of ``(leading, second, tid)``
triples.  For the scale the reproduction runs at this is as fast as a nested
B+-tree while being considerably simpler; the analytic memory model charges it
exactly like a two-key B+-tree so space comparisons stay fair.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Iterator, Sequence

import numpy as np

from repro.errors import KeyNotFoundError
from repro.index.base import KeyRange, tid_items
from repro.storage.identifiers import TupleId
from repro.storage.memory import KEY_BYTES, btree_bytes


class CompositeIndex:
    """An index over a pair of columns ``(leading, second)``.

    Supports the access pattern the paper needs: a conjunctive range predicate
    on both key parts.
    """

    def __init__(self, node_capacity: int = 32) -> None:
        self._node_capacity = node_capacity
        self._entries: list[tuple[float, float, TupleId]] = []

    def insert_many(self, leading: "Sequence[float] | np.ndarray",
                    second: "Sequence[float] | np.ndarray",
                    tids: "Sequence[TupleId] | np.ndarray") -> None:
        """Batched insert: append the batch and let Timsort merge the runs."""
        batch = sorted(zip(np.asarray(leading, dtype=np.float64).tolist(),
                           np.asarray(second, dtype=np.float64).tolist(),
                           tid_items(tids)))
        if not batch:
            return
        self._entries.extend(batch)
        self._entries.sort()

    def delete_many(self, leading: "Sequence[float] | np.ndarray",
                    second: "Sequence[float] | np.ndarray",
                    tids: "Sequence[TupleId] | np.ndarray") -> None:
        """Remove one entry per aligned ``(leading[i], second[i]) -> tids[i]``;
        an entry listed more often than it is stored is a
        ``KeyNotFoundError``, nothing removed."""
        batch = list(zip(np.asarray(leading, dtype=np.float64).tolist(),
                         np.asarray(second, dtype=np.float64).tolist(),
                         tid_items(tids)))
        for entry, listed in Counter(batch).items():
            if (bisect.bisect_right(self._entries, entry)
                    - bisect.bisect_left(self._entries, entry)) < listed:
                raise KeyNotFoundError(f"entry {entry!r} is not in the index")
        for entry in batch:
            self._entries.pop(bisect.bisect_left(self._entries, entry))

    def range_search_array(self, leading_range: KeyRange,
                           second_range: KeyRange) -> np.ndarray:
        """Tuple ids matching both closed ranges, as one array.

        Two binary searches locate the contiguous leading-key run; the
        second-key filter is one vectorized mask over that run — the
        planner's access-path contract.
        """
        start = bisect.bisect_left(self._entries, leading_range.low,
                                   key=lambda entry: entry[0])
        stop = bisect.bisect_right(self._entries, leading_range.high,
                                   key=lambda entry: entry[0])
        run = self._entries[start:stop]
        if not run:
            return np.empty(0, dtype=np.int64)
        seconds = np.fromiter((entry[1] for entry in run),
                              dtype=np.float64, count=len(run))
        tids = np.asarray([entry[2] for entry in run])
        mask = (seconds >= second_range.low) & (seconds <= second_range.high)
        return tids[mask]

    def items(self) -> Iterator[tuple[float, float, TupleId]]:
        """Iterate entries in key order."""
        return iter(self._entries)

    @property
    def num_entries(self) -> int:
        """Number of entries stored."""
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Analytic size in bytes; charged as a B+-tree with 16-byte keys."""
        return btree_bytes(len(self._entries), self._node_capacity,
                           key_bytes=2 * KEY_BYTES)
