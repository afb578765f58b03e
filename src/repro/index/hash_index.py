"""Hash index.

Used in two places:

* as the engine's *primary index* when the workload only ever resolves primary
  keys to row locations (the logical-pointer scheme performs exactly this
  probe in Step 3 of Hermit's lookup), and
* as the implementation of the TRS-Tree leaf outlier buffers, which the paper
  describes as "a hash table mapping from m to the corresponding tuple's
  identifier".
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, tid_items
from repro.storage.identifiers import TupleId
from repro.storage.memory import hash_table_bytes


class HashIndex(Index):
    """A non-unique hash index mapping keys to lists of tuple identifiers."""

    def __init__(self) -> None:
        super().__init__()
        self._buckets: dict[float, list[TupleId]] = defaultdict(list)
        self._num_entries = 0

    def insert(self, key: float, tid: TupleId) -> None:
        """Insert ``key -> tid``."""
        self.stats.inserts += 1
        self._buckets[key].append(tid)
        self._num_entries += 1

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Batched insert: group by key, extend each bucket once.

        One argsort finds the equal-key runs, so a bucket receiving many
        tids is touched with a single ``extend`` instead of one dict probe
        and append per pair.
        """
        keys = np.asarray(keys, dtype=np.float64)
        items = tid_items(tids)
        if keys.size != len(items):
            raise StorageError("keys and tids must have equal length")
        count = int(keys.size)
        if count == 0:
            return
        self.stats.inserts += count
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        run_starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_keys)) + 1]
        )
        run_stops = np.concatenate([run_starts[1:], [count]])
        positions = order.tolist()
        buckets = self._buckets
        # repro: ignore[REP004] -- iterates distinct-key runs, not elements;
        # bucket dicts have no array form to extend in one pass
        for start, stop in zip(run_starts.tolist(), run_stops.tolist()):
            buckets[float(sorted_keys[start])].extend(
                items[positions[index]] for index in range(start, stop)
            )
        self._num_entries += count

    def delete(self, key: float, tid: TupleId) -> None:
        """Remove one occurrence of ``key -> tid``.

        Raises:
            KeyNotFoundError: If the pair is absent.
        """
        self.stats.deletes += 1
        tids = self._buckets.get(key)
        if not tids:
            raise KeyNotFoundError(f"key {key!r} is not in the index")
        try:
            tids.remove(tid)
        except ValueError:
            raise KeyNotFoundError(
                f"tid {tid!r} is not stored under key {key!r}"
            ) from None
        if not tids:
            del self._buckets[key]
        self._num_entries -= 1

    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe: one dict access per key, one final conversion."""
        keys = np.asarray(keys, dtype=np.float64).tolist()
        self.stats.lookups += len(keys)
        buckets = self._buckets
        runs = [buckets[key] for key in keys if key in buckets]
        flat = list(chain.from_iterable(runs))
        if not flat:
            return np.empty(0, dtype=np.int64)
        return np.asarray(flat)

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """All tuple ids whose key falls in ``key_range``.

        A hash index has no key order, so this is a full bucket scan; it
        exists only to satisfy the common interface (the engine never routes
        range predicates to a hash index).
        """
        self.stats.range_lookups += 1
        flat = list(chain.from_iterable(
            tids for key, tids in self._buckets.items()
            if key_range.contains(key)
        ))
        if not flat:
            return np.empty(0, dtype=np.int64)
        return np.asarray(flat)

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (key, tid) pairs in arbitrary order."""
        for key, tids in self._buckets.items():
            for tid in tids:
                yield key, tid

    @property
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""
        return self._num_entries

    @property
    def num_keys(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)

    def memory_bytes(self) -> int:
        """Analytic size in bytes."""
        return hash_table_bytes(self._num_entries)
