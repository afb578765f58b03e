"""The ordered index: one sorted run plus a record of pending writes.

Every complete index of the engine — the primary index, the ``BTREE``
secondary indexes, and so every host index — and the TRS-Tree's outlier
buffer is one :class:`OrderedIndex`.  Its layout is a differential file
(Severance & Lohman, TODS 1976): a read-optimised *main run* of two arrays,
``keys`` (float64, ascending, one per entry) and ``tids`` (aligned; int64,
or float64 once a float tid arrived), plus a small *record* of the writes
since the run was last folded, merged in bulk.

* A load — :meth:`OrderedIndex.insert_many` into an empty index — sorts
  the batch once and adopts it as the run.
* Every other write goes to the record: a net count per ``(key, tid)``
  pair, +1 for an insert and -1 for a delete.  A delete batch first checks
  that every pair is present in the run or the record, as often as it is
  listed (:meth:`OrderedIndex.holds_many`), and raises
  :class:`~repro.errors.KeyNotFoundError` otherwise, without folding.  A
  write folds the record once it has taken more entries than a quarter of
  the run (``_FOLD_SHARE``), so a write-only phase cannot grow it without
  bound; a batch that would take it past that share is folded straight
  from its arrays.  :meth:`OrderedIndex.delete_range` folds, then drops a
  half-open key slice in one copy.
* Every read probes the current run: the first read after a write folds
  the record, under a lock, because concurrent readers race to it (writers
  are serialised against readers by the engine's epoch lock).  A single
  read right after a single write therefore pays one O(n) fold.

A fold of ``d`` recorded entries into ``n`` costs ``O(d log n)`` plus two
masked copies of the run (:func:`_fold_inserts`, :func:`_fold_deletes`).
It applies the inserts first: a pair deleted ``k`` times loses its first
``k`` entries, and since entries of one pair are indistinguishable that is
what any interleaving of the writes leaves.  Within one key, entries keep
the order they reached the run in; a fold appends a key's new entries
behind its old ones, in the order their pairs were first recorded.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, KeyRanges
from repro.segments import offsets_from_counts, run_indices, sorted_unique
from repro.storage.identifiers import TupleId
from repro.storage.memory import btree_bytes

# The record is folded once it holds more than 1/_FOLD_SHARE of the run's
# entries.
_FOLD_SHARE = 4
# An ordered index is priced as the paper's B+-tree over the same entries.
_PRICED_NODE_CAPACITY = 32


class _Run(NamedTuple):
    """The main run: entry ``i`` is ``keys[i] -> tids[i]``."""

    keys: np.ndarray    # float64, ascending, one per entry
    tids: np.ndarray    # aligned with keys; int64 or float64
    num_keys: int       # distinct keys among ``keys``


_EMPTY_RUN = _Run(np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64),
                  0)


class OrderedIndex(Index):
    """A non-unique ordered index mapping numeric keys to tuple ids."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._run = _EMPTY_RUN
        # Net count of every (key, tid) pair written since the last fold,
        # and how many entries the writes since then have recorded.
        self._pending: Counter = Counter()
        self._recorded = 0

    # ------------------------------------------------------------------ write

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Insert every aligned ``keys[i] -> tids[i]`` pair.

        Into an empty index this is the load: the batch is sorted once
        (stably, so one key's tids keep their batch order) and becomes the
        run.  A batch that takes the record past a quarter of the run is
        folded in straight from its arrays; a smaller one is recorded.
        Duplicates of the same pair are allowed.
        """
        keys = np.asarray(keys, dtype=np.float64)
        tids = np.asarray(tids)
        if keys.shape != tids.shape:
            raise StorageError("keys and tids must have equal length")
        if keys.size == 0:
            return
        if not (self._run.keys.size or self._pending):
            order = np.argsort(keys, kind="stable")
            keys, tids = keys[order], _typed(tids[order])
            self._run = _Run(keys, tids.astype(np.result_type(
                self._run.tids.dtype, tids.dtype), copy=False), int(
                np.count_nonzero(keys[1:] != keys[:-1])) + 1)
            return
        if _FOLD_SHARE * (self._recorded + keys.size) > self._run.keys.size:
            self._fold(keys, tids)
            return
        self._pending.update(zip(keys.tolist(), tids.tolist()))
        self._recorded += keys.size

    def delete_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Remove one entry per aligned ``keys[i] -> tids[i]`` pair; a pair
        listed more often than the index holds it (:meth:`holds_many`) is a
        ``KeyNotFoundError``, nothing removed."""
        keys, tids = np.asarray(keys, dtype=np.float64), np.asarray(tids)
        held = self.holds_many(keys, tids)
        if not held.all():
            missing = int(np.argmin(held))
            raise KeyNotFoundError(f"tid {tids[missing].item()!r} is not "
                                   f"stored under key {keys[missing].item()!r}")
        self._pending.subtract(zip(keys.tolist(), tids.tolist()))
        self._recorded += keys.size
        if _FOLD_SHARE * self._recorded > self._run.keys.size:
            self._fold()

    def holds_many(self, keys: Sequence[float] | np.ndarray,
                   tids: Sequence[TupleId] | np.ndarray) -> np.ndarray:
        """Which aligned ``keys[i] -> tids[i]`` pairs the index holds (run
        and record, unfolded): a pair's ``j``-th listing (from 0) when it
        stores more than ``j`` entries of it, so no entry is taken twice."""
        keys, tids = np.asarray(keys, dtype=np.float64), np.asarray(tids)
        if keys.shape != tids.shape:
            raise StorageError("keys and tids must have equal length")
        run = self._run
        starts = run.keys.searchsorted(keys)
        if run.keys.size and run.num_keys == run.keys.size:
            # One entry per key (a primary index), as in _point_runs.
            slots = np.minimum(starts, run.keys.size - 1)
            stored = ((run.keys[slots] == keys)
                      & (run.tids[slots] == tids)).astype(np.int64)
        else:
            stops = run.keys.searchsorted(keys, "right")
            owners = np.repeat(np.arange(keys.size), stops - starts)
            positions = run_indices(starts, stops)[0]
            stored = np.bincount(owners[run.tids[positions] == tids[owners]],
                                 minlength=keys.size)
        if self._pending:
            stored += np.fromiter((self._pending[pair] for pair in zip(
                keys.tolist(), tids.tolist())), np.int64, keys.size)
        # A pair's earlier listings: a stable sort puts its listings in
        # batch order, so they are its distance from the first.
        order = np.lexsort((tids, keys))
        keys, tids = keys[order], tids[order]
        place = np.arange(keys.size)
        first = np.ones(keys.size, dtype=bool)
        first[1:] = (keys[1:] != keys[:-1]) | (tids[1:] != tids[:-1])
        if first.all():
            return stored > 0
        earlier = np.empty(keys.size, dtype=np.int64)
        earlier[order] = place - np.maximum.accumulate(place * first)
        return earlier < stored

    def delete_range(self, low: float, high: float) -> None:
        """Remove every entry with ``low <= key < high`` (half-open).

        Folds the record, then two ``searchsorted`` bound the slice and one
        copy of the run drops it.
        """
        keys, tids, num_keys = self._current()
        start, stop = keys.searchsorted(low), keys.searchsorted(high)
        if stop <= start:
            return
        gone = keys[start:stop]
        self._run = _Run(np.concatenate((keys[:start], keys[stop:])),
                         np.concatenate((tids[:start], tids[stop:])),
                         num_keys - 1 - int(np.count_nonzero(
                             gone[1:] != gone[:-1])))

    # ------------------------------------------------------------------- read

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """Closed-range scan: a read-only slice of the run's tids.

        Two ``searchsorted`` locate the range's key run; the answer is a
        view of index storage, so ``.copy()`` it before sorting in place.
        """
        keys, tids, _ = self._current()
        run = tids[keys.searchsorted(key_range.low):
                   keys.searchsorted(key_range.high, "right")]
        run.setflags(write=False)
        return run

    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe, tids grouped by key in input order.

        This is the primary-index resolution step of the single-request
        lookup under logical pointers (:meth:`_point_runs`).
        """
        keys = np.asarray(keys, dtype=np.float64)
        return self._point_runs(keys)[0]

    def range_search_segmented(
        self, ranges: "KeyRanges | Sequence[KeyRange]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented multi-range probe: two ``searchsorted``, one gather.

        Both passes locate every range's key run and one
        :func:`~repro.segments.run_indices` gather pulls the tids out, so a
        batch of range probes costs a constant number of array passes.
        """
        ranges = KeyRanges.of(ranges)
        keys, tids, _ = self._current()
        indices, offsets = run_indices(
            keys.searchsorted(ranges.lows),
            keys.searchsorted(ranges.highs, "right"))
        return tids[indices], offsets

    def search_many_segmented(
        self, keys: np.ndarray, offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batched point probe: one pass for the whole batch.

        This is the primary-index resolution pass of the batched executor
        under logical pointers.  Probes are resolved in input order, so the
        per-key runs are already grouped by input segment and the output
        offsets are a plain fancy-index of the per-key ones.
        """
        keys = np.asarray(keys, dtype=np.float64)
        tids, sizes = self._point_runs(keys)
        return tids, offsets_from_counts(np.asarray(sizes))[offsets]

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (key, tid) pairs in key order."""
        keys, tids, _ = self._current()
        return zip(keys.tolist(), tids.tolist())

    # ------------------------------------------------------------- accounting

    @property
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""
        return int(self._current().keys.size)

    def memory_bytes(self) -> int:
        """Analytic size in bytes: the B+-tree over the same entries."""
        return btree_bytes(self.num_entries, _PRICED_NODE_CAPACITY)

    # ---------------------------------------------------------------- private

    def _current(self) -> _Run:
        """The run with every recorded write folded in."""
        if self._pending:
            self._fold()
        return self._run

    def _fold(self, keys: np.ndarray | None = None,
              tids: np.ndarray | None = None) -> None:
        """Fold the record into the run, then the batch ``keys -> tids``."""
        with self._lock:
            run = self._run
            if self._pending:
                run = _folded(run, self._pending)
            if keys is not None:
                run = _merged(run, keys, tids)
            # Publish the run before emptying the record: a reader that
            # sees an empty record (:meth:`_current`, lock-free) must find
            # the run it was folded into.
            self._run = run
            self._pending = Counter()
            self._recorded = 0

    def _point_runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tids under ``keys``, grouped in input order, and per-key counts.

        Two ``searchsorted`` bound every key's run and one gather pulls the
        runs out; when every key owns one entry (a primary index) one
        ``searchsorted`` places every key, a hit's slot *is* its tid's
        position and its count the hit mask.
        """
        run_keys, tids, num_keys = self._current()
        if not (keys.size and run_keys.size):
            return tids[:0], np.zeros(keys.size, dtype=np.int64)
        starts = run_keys.searchsorted(keys)
        if num_keys == run_keys.size:
            # A key past the last one places at the end: the clipped take
            # compares it with the last key, which it cannot equal.
            hit = run_keys.take(starts, mode="clip") == keys
            return tids[starts[hit]], hit
        stops = run_keys.searchsorted(keys, "right")
        return tids[run_indices(starts, stops)[0]], stops - starts


def _typed(tids: np.ndarray) -> np.ndarray:
    """Tids as the run holds them: float64 if they are floats, else int64."""
    return tids.astype(np.float64 if tids.dtype.kind == "f" else np.int64,
                       copy=False)


def _folded(run: _Run, pending: Counter) -> _Run:
    """``run`` with the net writes of ``pending`` applied (inserts first).

    Int tids become float64 when the record holds a float tid.
    """
    keys, tids = (np.asarray(column) for column in zip(*pending))
    keys = keys.astype(np.float64, copy=False)
    counts = np.fromiter(pending.values(), dtype=np.int64, count=len(pending))
    run = _merged(run, np.repeat(keys, np.maximum(counts, 0)),
                  np.repeat(tids, np.maximum(counts, 0)))
    gone = counts < 0
    if gone.any():
        run = _fold_deletes(run, np.repeat(keys[gone], -counts[gone]),
                            np.repeat(tids[gone], -counts[gone]).astype(
                                run.tids.dtype, copy=False))
    return run


def _merged(run: _Run, keys: np.ndarray, tids: np.ndarray) -> _Run:
    """``run`` with every ``keys[i] -> tids[i]`` inserted, tids promoted to
    float64 if either side holds floats."""
    tids = _typed(tids)
    dtype = np.result_type(run.tids.dtype, tids.dtype)
    run = run._replace(tids=run.tids.astype(dtype, copy=False))
    if not keys.size:
        return run
    return _fold_inserts(run, keys, tids.astype(dtype, copy=False))


def _fold_inserts(run: _Run, new_keys: np.ndarray,
                  new_tids: np.ndarray) -> _Run:
    """Append every ``new_tids[i]`` at the end of ``new_keys[i]``'s run."""
    keys, tids, num_keys = run
    order = np.argsort(new_keys, kind="stable")
    new_keys, new_tids = new_keys[order], new_tids[order]
    ends = keys.searchsorted(new_keys, side="right")
    # A key not present yet, counted once however many entries it brings.
    fresh = keys.searchsorted(new_keys, side="left") == ends
    fresh[1:] &= new_keys[1:] != new_keys[:-1]
    # Entry i of the sorted batch lands behind the ``ends[i]`` old entries
    # before it and the i new ones; every other place takes an old entry.
    places = ends + np.arange(new_keys.size)
    old = np.ones(keys.size + new_keys.size, dtype=bool)
    old[places] = False
    return _Run(_spliced(keys, old, places, new_keys),
                _spliced(tids, old, places, new_tids),
                num_keys + int(np.count_nonzero(fresh)))


def _spliced(values: np.ndarray, old: np.ndarray, places: np.ndarray,
             new_values: np.ndarray) -> np.ndarray:
    """``values`` at the ``old`` places and ``new_values`` at ``places``."""
    out = np.empty(old.size, dtype=values.dtype)
    out[old] = values
    out[places] = new_values
    return out


def _fold_deletes(run: _Run, gone_keys: np.ndarray,
                  gone_tids: np.ndarray) -> _Run:
    """Remove, per ``(key, tid)`` pair deleted ``k`` times, its first ``k`` entries.

    Every pair must have at least ``k`` entries
    (:meth:`OrderedIndex.delete_many` checks).  The run of every deleted
    key is read once however many deletes hit it, so the work is bounded by
    the size of the run even when a few heavily duplicated keys own all the
    entries.
    """
    keys, tids, num_keys = run
    starts = keys.searchsorted(gone_keys, side="left")
    # A pair is named by one integer: its key's run start and its tid's
    # rank among the distinct deleted tids.
    tid_values = sorted_unique(gone_tids.copy())
    pairs = starts * tid_values.size + np.searchsorted(tid_values, gone_tids)
    pairs.sort()
    first_delete = np.flatnonzero(
        np.concatenate(([True], pairs[1:] != pairs[:-1])))
    wanted = np.diff(np.append(first_delete, pairs.size))
    pairs = pairs[first_delete]
    # The entries that could be victims: those in a deleted key's run whose
    # tid is a deleted one, named the same way, in run order within a pair.
    touched = sorted_unique(starts.copy())
    stops = keys.searchsorted(keys[touched], side="right")
    positions, _ = run_indices(touched, stops)
    run_tids = tids[positions]
    rank = np.searchsorted(tid_values, run_tids)
    rank[rank == tid_values.size] = 0
    hit = tid_values[rank] == run_tids
    entries = (np.repeat(touched, stops - touched)[hit] * tid_values.size
               + rank[hit])
    positions = positions[hit]
    order = np.argsort(entries, kind="stable")
    positions = positions[order]
    first = np.searchsorted(entries[order], pairs, side="left")
    keep = np.ones(keys.size, dtype=bool)
    keep[positions[run_indices(first, first + wanted)[0]]] = False
    # A run is emptied when it took as many deletes as it had entries.
    deletes = np.bincount(np.searchsorted(touched, starts),
                          minlength=touched.size)
    emptied = int(np.count_nonzero(deletes == stops - touched))
    return _Run(keys[keep], tids[keep], num_keys - emptied)
