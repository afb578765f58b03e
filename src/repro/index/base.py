"""Index interfaces shared by all index structures.

Every index in the library — the ordered index and the page-based B+-tree —
exposes the same small surface so the engine's executor, the baselines and
the benchmarks can swap them freely.

The read primitives are array-native: every concrete index implements
``search_many`` (batched point probe) and ``range_search_array`` (one closed
range), both returning numpy tid arrays, so the whole lookup pipeline stays
array-native end to end.  On top of them the base class defines the
multi-range and segmented batch forms (``range_search_many_array``,
``range_search_segmented``, ``search_many_segmented`` — overridden where an
index has a genuinely vectorized form) and two list conveniences, ``search``
and ``range_search``, which are ``.tolist()`` of the array primitives and
are never overridden.

No read promises key order across a whole answer: an ordered index with
writes recorded since its last fold returns a range's entries from its
main run and then those from its record (``repro.index.ordered``).  Every
lookup tail sorts or deduplicates its candidates, and no complete index
claims ``AccessPath.produces_sorted_tids``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.segments import concat_segments, empty_offsets
from repro.storage.identifiers import TupleId


def tid_items(tids: "Sequence[TupleId] | np.ndarray") -> list:
    """Normalise a tid sequence to native Python objects.

    Some index structures store tids inside Python containers (paged
    B+-tree nodes), so numpy scalars are unboxed once up front — the shared
    first step of their batched writes.
    """
    if isinstance(tids, np.ndarray):
        return tids.tolist()
    return [tid.item() if hasattr(tid, "item") else tid for tid in tids]


@dataclass(frozen=True)
class KeyRange:
    """A closed interval ``[low, high]`` over an index key domain.

    Point probes are expressed as degenerate ranges where ``low == high``.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            # Normalise reversed bounds; callers that build ranges from a
            # negative-slope linear function rely on this.
            low, high = self.high, self.low
            object.__setattr__(self, "low", low)
            object.__setattr__(self, "high", high)

    @property
    def is_point(self) -> bool:
        """Whether the range denotes a single key."""
        return self.low == self.high

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.low <= value <= self.high

    def overlaps(self, other: "KeyRange") -> bool:
        """Whether the two closed intervals intersect."""
        return self.low <= other.high and other.low <= self.high

    def intersect(self, other: "KeyRange") -> "KeyRange | None":
        """Intersection with ``other``, or None if they are disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return KeyRange(low, high)

    @staticmethod
    def union(ranges: Iterable["KeyRange"]) -> list["KeyRange"]:
        """Merge overlapping ranges into a minimal disjoint cover.

        This implements the ``Union(RS)`` step of the TRS-Tree lookup
        (Algorithm 2): ranges produced by neighbouring leaves frequently
        overlap and merging them avoids redundant host-index probes.
        """
        ordered = sorted(ranges, key=lambda r: (r.low, r.high))
        merged: list[KeyRange] = []
        for candidate in ordered:
            if merged and candidate.low <= merged[-1].high:
                last = merged[-1]
                if candidate.high > last.high:
                    merged[-1] = KeyRange(last.low, candidate.high)
            else:
                merged.append(candidate)
        return merged


class KeyRanges(Sequence[KeyRange]):
    """A batch of closed intervals as two aligned float64 arrays.

    The one format batch bounds travel in: the planner builds one per
    predicate column of a plan group, and the access paths, the mechanisms'
    ``candidate_tids_many``, ``TRSTree.lookup_many``, the indexes'
    ``range_search_segmented`` and the segmented lookup tail read ``lows``
    and ``highs`` as they are, so no layer of a batch read rebuilds
    per-range objects.  It is still a ``Sequence[KeyRange]``: indexing and
    iteration build :class:`KeyRange` objects on demand, for the per-range
    fallbacks.

    ``lows[i] <= highs[i]`` is the constructor's precondition; :meth:`of`
    establishes it for any input.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[float] | np.ndarray,
                 highs: Sequence[float] | np.ndarray) -> None:
        self.lows = np.asarray(lows, dtype=np.float64)
        self.highs = np.asarray(highs, dtype=np.float64)

    @classmethod
    def of(cls, ranges: "KeyRanges | Iterable") -> "KeyRanges":
        """``ranges`` unchanged if it is a ``KeyRanges``, else its bound arrays.

        Accepts objects with ``low`` / ``high`` attributes (:class:`KeyRange`,
        the engine's ``RangePredicate``) or ``(low, high)`` pairs, one kind
        per call; a reversed pair is swapped, as :class:`KeyRange` does.
        """
        if isinstance(ranges, KeyRanges):
            return ranges
        items = list(ranges)
        try:
            lows = [key_range.low for key_range in items]
            highs = [key_range.high for key_range in items]
        except AttributeError:
            lows = [pair[0] for pair in items]
            highs = [pair[1] for pair in items]
        lows = np.array(lows, dtype=np.float64)
        highs = np.array(highs, dtype=np.float64)
        reversed_bounds = lows > highs
        if reversed_bounds.any():
            lows, highs = (np.where(reversed_bounds, highs, lows),
                           np.where(reversed_bounds, lows, highs))
        return cls(lows, highs)

    def __len__(self) -> int:
        return self.lows.size

    def __getitem__(self, index: int) -> KeyRange:
        return KeyRange(float(self.lows[index]), float(self.highs[index]))

    def __iter__(self) -> Iterator[KeyRange]:
        return map(KeyRange, self.lows.tolist(), self.highs.tolist())

    def __repr__(self) -> str:
        return f"KeyRanges(lows={self.lows!r}, highs={self.highs!r})"


class Index(abc.ABC):
    """Abstract key → tuple-identifier index."""

    @abc.abstractmethod
    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe: all tids stored under any of ``keys``.

        Tids come back grouped by key in input order (a key may hit zero
        or several entries); the result may be a read-only view of the
        index's own storage.
        """

    @abc.abstractmethod
    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """All tids whose key lies in the closed ``key_range``, as one array.

        The result may be a read-only view of the index's own storage.  It
        need not be in key order (see the module docstring).
        """

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Analytic size of the structure in bytes."""

    @property
    @abc.abstractmethod
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""

    # ----------------------------------------------------- list conveniences

    def search(self, key: float) -> list[TupleId]:
        """All tuple identifiers stored under ``key``, as a list."""
        return self.search_many([key]).tolist()

    def range_search(self, key_range: KeyRange) -> list[TupleId]:
        """All tuple identifiers whose key lies in ``key_range``, as a list."""
        return self.range_search_array(key_range).tolist()

    # ------------------------------------------------------- batch read forms

    def range_search_many_array(self, ranges: Sequence[KeyRange]) -> np.ndarray:
        """Union of :meth:`range_search_array` over several ranges.

        The result may contain duplicates when the ranges overlap; callers
        that need a set dedup with :func:`repro.segments.sorted_unique`.
        """
        arrays = [run for run in map(self.range_search_array, ranges)
                  if run.size]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        return np.concatenate(arrays)

    def range_search_segmented(
        self, ranges: "KeyRanges | Sequence[KeyRange]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-range results of :meth:`range_search_array` as one segmented array.

        Unlike :meth:`range_search_many_array` (which unions the ranges into
        a single flat array), the returned ``(values, offsets)`` pair keeps
        the per-range boundaries — range ``i`` owns
        ``values[offsets[i]:offsets[i + 1]]``, as :meth:`range_search_array`
        orders it, not necessarily by key — which is what the batched
        query executor needs to answer B queries in O(1) array passes.  The
        default concatenates per-range array probes; ``OrderedIndex``
        overrides it with a vectorized double-searchsorted gather over
        :class:`KeyRanges` bound arrays.
        """
        return concat_segments([self.range_search_array(key_range)
                                for key_range in ranges])

    def search_many_segmented(
        self, keys: np.ndarray, offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented :meth:`search_many`: one probe pass, boundaries kept.

        ``keys`` is a segmented array of point-probe keys (see
        ``repro.segments``); the result maps every segment to the
        concatenation of its keys' tid lists, with fresh offsets (a key may
        hit zero or several entries, so output segment sizes differ from
        input sizes).  This is the primary-index resolution step of the
        batched executor under logical pointers: one call resolves the
        candidate tids of a whole query batch.  The default loops one
        :meth:`search_many` per segment; ``OrderedIndex`` overrides it with
        a single ``searchsorted`` pass over its key array.
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64), empty_offsets(offsets.size - 1)
        return concat_segments([
            self.search_many(keys[offsets[i]:offsets[i + 1]])
            for i in range(offsets.size - 1)
        ])

    @abc.abstractmethod
    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Batched write: insert every aligned ``keys[i] -> tids[i]`` pair.

        The index may already hold entries and keeps them; into an empty
        index this *is* the load.  Every index implements it as one batch
        (a sort-once merge), so bulk writes cost one pass instead of one
        descent per key.
        """

    @abc.abstractmethod
    def delete_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Remove one entry per aligned ``keys[i] -> tids[i]``; a pair listed
        more often than it is stored is a ``KeyNotFoundError``, nothing
        removed."""
