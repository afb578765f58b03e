"""The TRS-Tree's outlier buffer.

A leaf's model does not have to cover every tuple in its range; tuples whose
host value falls outside the confidence band are *outliers* and are kept in
a hash table mapping the target-column value to the tuple identifiers
(Section 4.1) — one table for the whole tree, since a key's leaf is the one
its value routes to.  Inserts and deletes probe it by value.  Lookups never
touch it — they slice the sorted array copy that
:class:`~repro.core.trs_tree.TRSTree` keeps current
(``index/flat_view.py``), whose cold build reads :meth:`buckets`.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.index.base import tid_items
from repro.storage.identifiers import TupleId


class OutlierBuffer:
    """Hash table from target-column value to tuple identifiers."""

    def __init__(self) -> None:
        self._entries: dict[float, list[TupleId]] = defaultdict(list)
        self._count = 0

    def add(self, target_value: float, tid: TupleId) -> None:
        """Record ``tid`` as an outlier with target value ``target_value``."""
        self._entries[target_value].append(tid)
        self._count += 1

    def add_many(self, target_values, tids) -> None:
        """Batched :meth:`add`: group by value, extend each bucket once."""
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
        # repro: ignore[REP004] -- iterates distinct-key runs, not elements;
        # bucket dicts have no array form to extend in one pass
        for start, stop in zip(run_starts.tolist(), run_stops.tolist()):
            self._entries[float(sorted_values[start])].extend(
                items[positions[index]] for index in range(start, stop)
            )
        self._count += count

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
        self._count -= 1
        return True

    def buckets(self) -> tuple[list[float], list[list[TupleId]]]:
        """Every key and its tid bucket (insertion order), in key order."""
        keys = sorted(self._entries)
        return keys, [self._entries[key] for key in keys]

    def __len__(self) -> int:
        return self._count
