"""The ordered index: a sorted run read beside a sorted record of writes.

Every complete index of the engine — the primary index, the ``BTREE``
secondary indexes, and so every host index — and the TRS-Tree's outlier
buffer is one :class:`OrderedIndex`.  Its layout is a differential file
(Severance & Lohman, TODS 1976), read *beside* its main file.  It holds
three parts:

* the *main run*: two arrays, ``keys`` (float64, ascending, one per entry)
  and ``tids`` (aligned; int64, or float64 once a float tid arrived);
* the *insert run*: the inserts since the last fold, as two sorted arrays
  of the same form;
* the *dead positions*: the main-run positions deleted since the last
  fold, ascending.

Both runs' tids sit back to back in one storage array (the main run's
first), so a probe of both is one gather: every probe's key run in the
main run, split around its dead positions, is followed by its key run in
the insert run.  Within one probe's answer key order is therefore not
promised across that boundary.

* A load — :meth:`OrderedIndex.insert_many` into an empty index — sorts
  the batch once and adopts it as the main run.
* An insert batch is merged into the insert run with one O(k + b) splice
  (:func:`_fold_inserts`), written in place behind the main run's tids;
  when the storage has no room left, the tids move to one with room for
  twice the insert run.
* A delete batch finds every listing with one search
  (:meth:`OrderedIndex._claims`) over the live entries of both runs under
  its keys.  A listing the index does not hold raises
  :class:`~repro.errors.KeyNotFoundError` with nothing changed; a held one
  leaves the insert run, or marks its main-run position dead.
* A write folds once the record — the insert run and the dead positions —
  would pass a quarter of the main run (``_FOLD_SHARE``): the live main
  run and the insert run (and the batch) merge into a new main run.
  :meth:`OrderedIndex.delete_range` folds, then drops a half-open key
  slice in one copy.
* A read never folds and never assigns an attribute: it answers from the
  main run minus the dead positions plus the insert run.  With nothing
  recorded it is one emptiness test over the main-run probe.  Writers are
  serialised against readers by the engine's epoch lock.

Within one key, entries keep the order they reached the index in; a fold
appends a key's inserted entries behind its old ones.  A delete takes a
pair's earliest live entries, main run first; entries of one pair are
indistinguishable, so that is what any choice leaves.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, KeyRanges
from repro.segments import (
    offsets_from_counts,
    run_indices,
    segment_ids,
    sorted_unique,
)
from repro.storage.identifiers import TupleId
from repro.storage.memory import btree_bytes

# A write folds once the record would hold more than 1/_FOLD_SHARE of the
# main run's entries.
_FOLD_SHARE = 4
# An ordered index is priced as the paper's B+-tree over the same entries.
_PRICED_NODE_CAPACITY = 32


class _Run(NamedTuple):
    """A sorted run: entry ``i`` is ``keys[i] -> tids[i]``."""

    keys: np.ndarray    # float64, ascending, one per entry
    tids: np.ndarray    # aligned with keys; int64 or float64
    num_keys: int       # distinct keys among ``keys``


class _State(NamedTuple):
    """The three parts, and the storage both runs' tids live in."""

    run: _Run           # the main run; its tids are storage[:n]
    inserts: _Run       # the insert run; its tids are storage[n:n + k]
    dead: np.ndarray    # int64, ascending: deleted main-run positions
    storage: np.ndarray  # both runs' tids, then room for more inserts


_NO_DEAD = np.empty(0, dtype=np.int64)


def _settled(run: _Run) -> _State:
    """``run`` as the whole index: nothing recorded."""
    return _State(run, _Run(run.keys[:0], run.tids[:0], 0), _NO_DEAD,
                  run.tids)


_EMPTY = _settled(_Run(np.empty(0, dtype=np.float64),
                       np.empty(0, dtype=np.int64), 0))


class OrderedIndex(Index):
    """A non-unique ordered index mapping numeric keys to tuple ids."""

    def __init__(self) -> None:
        self._state = _EMPTY

    # ------------------------------------------------------------------ write

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Insert every aligned ``keys[i] -> tids[i]`` pair.

        Into an empty index this is the load: the batch is sorted once
        (stably, so one key's tids keep their batch order) and becomes the
        main run.  A batch that takes the record past a quarter of the
        main run folds; a smaller one is spliced into the insert run.
        Duplicates of the same pair are allowed.
        """
        keys = np.asarray(keys, dtype=np.float64)
        tids = np.asarray(tids)
        if keys.shape != tids.shape:
            raise StorageError("keys and tids must have equal length")
        if keys.size == 0:
            return
        run, inserts, dead, storage = self._state
        tids = _typed(tids)
        dtype = np.result_type(storage.dtype, tids.dtype)
        if not run.keys.size:
            # An empty main run holds no record (the fold share).
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            self._state = _settled(_Run(keys, tids[order].astype(
                dtype, copy=False), _distinct(keys)))
            return
        if _FOLD_SHARE * (inserts.keys.size + dead.size + keys.size) \
                > run.keys.size:
            self._fold(keys, tids)
            return
        size, recorded = run.keys.size, inserts.keys.size
        if storage.dtype != dtype or storage.size < size + recorded + keys.size:
            # Room for twice the insert run, as far as the fold share lets
            # it grow: a run of inserts copies the main run's tids a
            # logarithmic number of times before the fold.
            grown = np.empty(size + min(size // _FOLD_SHARE,
                                        2 * (recorded + keys.size)), dtype=dtype)
            grown[:size + recorded] = storage[:size + recorded]
            storage = grown
            run = run._replace(tids=storage[:size])
        inserts = _fold_inserts(inserts._replace(
            tids=storage[size:size + recorded]), keys, tids)
        stored = storage[size:size + inserts.keys.size]
        stored[:] = inserts.tids
        self._state = _State(run, inserts._replace(tids=stored), dead,
                             storage)

    def delete_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Remove one entry per aligned ``keys[i] -> tids[i]`` pair; a pair
        listed more often than the index holds it (:meth:`holds_many`) is a
        ``KeyNotFoundError``, nothing removed."""
        keys, tids = np.asarray(keys, dtype=np.float64), np.asarray(tids)
        held, taken = self._claims(keys, tids)
        if not held.all():
            missing = int(np.argmin(held))
            raise KeyNotFoundError(f"tid {tids[missing].item()!r} is not "
                                   f"stored under key {keys[missing].item()!r}")
        if not taken.size:
            return
        run, inserts, dead, storage = self._state
        size = run.keys.size
        in_run = taken < size
        if in_run.any():
            dead = np.sort(np.concatenate((dead, taken[in_run])))
        if not in_run.all():
            kept = np.ones(inserts.keys.size, dtype=bool)
            kept[taken[~in_run] - size] = False
            keys = inserts.keys[kept]
            stored = storage[size:size + keys.size]
            stored[:] = inserts.tids[kept]
            inserts = _Run(keys, stored, _distinct(keys))
        self._state = _State(run, inserts, dead, storage)
        if _FOLD_SHARE * (inserts.keys.size + dead.size) > size:
            self._fold()

    def holds_many(self, keys: Sequence[float] | np.ndarray,
                   tids: Sequence[TupleId] | np.ndarray) -> np.ndarray:
        """Which aligned ``keys[i] -> tids[i]`` pairs the index holds: a
        pair's ``j``-th listing (from 0) when it stores more than ``j``
        live entries of it, so no entry is taken twice."""
        return self._claims(np.asarray(keys, dtype=np.float64),
                            np.asarray(tids))[0]

    def delete_range(self, low: float, high: float) -> None:
        """Remove every entry with ``low <= key < high`` (half-open).

        Folds the record, then two ``searchsorted`` bound the slice and one
        copy of the run drops it.
        """
        self._fold()
        keys, tids, num_keys = self._state.run
        start, stop = keys.searchsorted(low), keys.searchsorted(high)
        if stop <= start:
            return
        gone = keys[start:stop]
        self._state = _settled(_Run(
            np.concatenate((keys[:start], keys[stop:])),
            np.concatenate((tids[:start], tids[stop:])),
            num_keys - 1 - int(np.count_nonzero(gone[1:] != gone[:-1]))))

    # ------------------------------------------------------------------- read

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """Closed-range scan: the tids of the range's key run.

        Two ``searchsorted`` locate the run.  With nothing recorded the
        answer is a read-only view of index storage, so ``.copy()`` it
        before sorting in place; otherwise it is a gather of the live
        main-run entries followed by the insert run's.
        """
        state = self._state
        keys = state.run.keys
        start = keys.searchsorted(key_range.low)
        stop = keys.searchsorted(key_range.high, "right")
        if state.inserts.keys.size or state.dead.size:
            inserted = state.inserts.keys
            found = state.storage[_live_positions(
                state, np.array([start]), np.array([stop]),
                inserted.searchsorted([key_range.low]),
                inserted.searchsorted([key_range.high], "right"))[0]]
        else:
            found = state.run.tids[start:stop]
        found.setflags(write=False)
        return found

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
        With a record, the same gather takes every range's live main-run
        entries and then its insert-run entries (:func:`_live_positions`).
        """
        ranges = KeyRanges.of(ranges)
        state = self._state
        keys = state.run.keys
        starts = keys.searchsorted(ranges.lows)
        stops = keys.searchsorted(ranges.highs, "right")
        if not (state.inserts.keys.size or state.dead.size):
            indices, offsets = run_indices(starts, stops)
            return state.run.tids[indices], offsets
        inserted = state.inserts.keys
        positions, offsets = _live_positions(
            state, starts, stops, inserted.searchsorted(ranges.lows),
            inserted.searchsorted(ranges.highs, "right"))
        return state.storage[positions], offsets

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
        """Iterate all live (key, tid) pairs in key order."""
        run, inserts, dead, _ = self._state
        keys, tids = run.keys, run.tids
        if dead.size:
            alive = np.ones(keys.size, dtype=bool)
            alive[dead] = False
            keys, tids = keys[alive], tids[alive]
        if inserts.keys.size:
            keys = np.concatenate((keys, inserts.keys))
            order = np.argsort(keys, kind="stable")
            keys, tids = keys[order], np.concatenate((tids, inserts.tids))[order]
        return zip(keys.tolist(), tids.tolist())

    # ------------------------------------------------------------- accounting

    @property
    def num_entries(self) -> int:
        """Number of live (key, tid) entries stored."""
        run, inserts, dead, _ = self._state
        return int(run.keys.size - dead.size + inserts.keys.size)

    def memory_bytes(self) -> int:
        """Analytic size in bytes: the B+-tree over the same entries."""
        return btree_bytes(self.num_entries, _PRICED_NODE_CAPACITY)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the three parts are well formed
        (for tests).

        Both runs' keys ascend, align with their tids and count their
        distinct keys right (the count the one-entry-per-key probes trust;
        dead marks do not change it); both runs' tids share the storage's
        type; the dead positions ascend strictly and each names a main-run
        entry; and the record is within the fold share.
        """
        run, inserts, dead, storage = self._state

        def check(condition: bool, message: str) -> None:
            if not condition:
                raise AssertionError(message)

        for name, part in (("main run", run), ("insert run", inserts)):
            keys = part.keys
            check(keys.size == part.tids.size,
                  f"the {name}'s keys and tids differ in length")
            check(not (keys[1:] < keys[:-1]).any(),
                  f"the {name}'s keys do not ascend")
            check(part.num_keys == _distinct(keys),
                  f"the {name} counts {part.num_keys} distinct keys but "
                  f"holds {_distinct(keys)}")
            check(part.tids.dtype == storage.dtype,
                  f"the {name}'s tids are not of the storage's type")
        size = run.keys.size
        check(np.array_equal(storage[:size], run.tids) and np.array_equal(
            storage[size:size + inserts.keys.size], inserts.tids),
              "the storage does not hold the runs' tids back to back")
        check(dead.dtype == np.int64 and not (dead[1:] <= dead[:-1]).any()
              and (not dead.size or 0 <= dead[0] <= dead[-1] < run.keys.size),
              "the dead positions do not name distinct main-run entries")
        check(_FOLD_SHARE * (inserts.keys.size + dead.size) <= run.keys.size,
              "the record is past the fold share")

    # ---------------------------------------------------------------- private

    def _fold(self, keys: np.ndarray | None = None,
              tids: np.ndarray | None = None) -> None:
        """Fold the record, and the batch ``keys -> tids``, into a new main
        run: one masked copy drops the dead entries, one splice merges."""
        run, inserts, dead, _ = self._state
        if dead.size:
            alive = np.ones(run.keys.size, dtype=bool)
            alive[dead] = False
            live = run.keys[alive]
            run = _Run(live, run.tids[alive], _distinct(live))
        new_keys, new_tids = inserts.keys, inserts.tids
        if keys is not None:
            new_keys = np.concatenate((new_keys, keys))
            new_tids = np.concatenate((new_tids, tids))
        self._state = _settled(_merged(run, new_keys, new_tids))

    def _point_runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tids under ``keys``, grouped in input order, and per-key counts.

        Two ``searchsorted`` bound every key's run and one gather pulls the
        runs out; when every key owns one entry (a primary index) one
        ``searchsorted`` places every key, a hit's slot *is* its tid's
        position and its count the hit mask.
        """
        state = self._state
        run_keys, tids, num_keys = state.run
        if not (keys.size and run_keys.size):
            return tids[:0], np.zeros(keys.size, dtype=np.int64)
        starts = run_keys.searchsorted(keys)
        recorded = state.inserts.keys.size or state.dead.size
        if num_keys == run_keys.size:
            # A key past the last one places at the end: the clipped take
            # compares it with the last key, which it cannot equal.
            hit = run_keys.take(starts, mode="clip") == keys
            if not recorded:
                return tids[starts[hit]], hit
            stops = starts + hit
        else:
            stops = run_keys.searchsorted(keys, "right")
            if not recorded:
                return tids[run_indices(starts, stops)[0]], stops - starts
        inserted = state.inserts.keys
        positions, offsets = _live_positions(
            state, starts, stops, inserted.searchsorted(keys),
            inserted.searchsorted(keys, "right"))
        return state.storage[positions], offsets[1:] - offsets[:-1]

    def _claims(self, keys: np.ndarray, tids: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
        """Which aligned listings the index holds, and the storage position
        of the live entry each held listing takes.

        One search: every live entry under a listed key, in both runs, is
        gathered once however many listings name it, so the work is bounded
        by the entries even when a few heavily duplicated keys own them
        all.  A pair is named by one integer, its key's rank among the
        listed keys times the listed tids plus its tid's rank, and the
        ``j``-th listing of a pair (in batch order) takes the pair's
        ``j``-th entry (main run first, in position order).
        """
        if keys.shape != tids.shape:
            raise StorageError("keys and tids must have equal length")
        state = self._state
        if not keys.size:
            return np.ones(0, dtype=bool), _NO_DEAD
        key_values = sorted_unique(keys.copy())
        tid_values = sorted_unique(tids.copy())
        width = tid_values.size
        listed = key_values.searchsorted(keys) * width \
            + tid_values.searchsorted(tids)
        run_keys, inserted = state.run.keys, state.inserts.keys
        positions, offsets = _live_positions(
            state, run_keys.searchsorted(key_values),
            run_keys.searchsorted(key_values, "right"),
            inserted.searchsorted(key_values),
            inserted.searchsorted(key_values, "right"))
        stored = state.storage[positions]
        rank = np.minimum(tid_values.searchsorted(stored), width - 1)
        hit = tid_values[rank] == stored
        entries = (segment_ids(offsets) * width + rank)[hit]
        order = np.argsort(entries, kind="stable")
        entries, positions = entries[order], positions[hit][order]
        # A listing's earlier listings of its pair: a stable sort puts a
        # pair's listings in batch order, so they are its distance from
        # the first.
        order = np.argsort(listed, kind="stable")
        ranked = listed[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        earlier = np.zeros(keys.size, dtype=np.int64)
        if not first.all():
            place = np.arange(keys.size)
            earlier[order] = place - np.maximum.accumulate(place * first)
        start = entries.searchsorted(listed)
        held = earlier < entries.searchsorted(listed, "right") - start
        if not held.any():
            return held, _NO_DEAD
        return held, positions[start[held] + earlier[held]]


def _distinct(keys: np.ndarray) -> int:
    """Distinct keys of an ascending key array."""
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1 if keys.size else 0


def _live_positions(state: _State, starts: np.ndarray, stops: np.ndarray,
                    insert_starts: np.ndarray, insert_stops: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Storage positions of every probe's live entries, and their offsets.

    Probe ``i`` owns the main-run slice ``[starts[i], stops[i])`` less its
    dead positions, then the insert-run slice ``[insert_starts[i],
    insert_stops[i])``.  Two ``searchsorted`` of the main-run bounds in the
    dead positions count each probe's dead entries; a probe holding some
    has its slice cut into pieces around them.  The pieces and the insert
    slices are the runs of one :func:`~repro.segments.run_indices` — no
    mask over the gathered entries.
    """
    dead, size = state.dead, state.run.keys.size
    first_dead = dead.searchsorted(starts)
    cuts = dead.searchsorted(stops) - first_dead
    # Probe i's pieces: cuts[i] + 1 of the main run, then its insert slice.
    pieces = offsets_from_counts(cuts + 2)
    inserted = pieces[1:] - 1
    piece_starts = np.empty(int(pieces[-1]), dtype=np.int64)
    piece_stops = np.empty_like(piece_starts)
    piece_starts[pieces[:-1]] = starts
    piece_stops[inserted - 1] = stops
    piece_starts[inserted] = insert_starts + size
    piece_stops[inserted] = insert_stops + size
    if cuts.any():
        at, cut_offsets = run_indices(first_dead, first_dead + cuts)
        # The j-th dead position of probe i ends its piece j and starts
        # piece j + 1.
        slots = pieces[:-1].repeat(cuts) + np.arange(at.size) \
            - cut_offsets[:-1].repeat(cuts)
        piece_stops[slots] = dead[at]
        piece_starts[slots + 1] = dead[at] + 1
    positions, piece_offsets = run_indices(piece_starts, piece_stops)
    return positions, piece_offsets[pieces]


def _typed(tids: np.ndarray) -> np.ndarray:
    """Tids as the runs hold them: float64 if they are floats, else int64."""
    return tids.astype(np.float64 if tids.dtype.kind == "f" else np.int64,
                       copy=False)


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
