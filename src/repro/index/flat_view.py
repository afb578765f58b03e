"""Write-maintained flat view of a sorted ``key -> tid bucket`` structure.

``BPlusTree`` and ``OutlierBuffer`` keep their entries in Python containers
(leaf bucket lists, a dict of buckets), which the batched probes cannot
search in array passes.  The *flat view* is the array copy they search
instead: ``(keys, tids)`` with one key per entry, keys ascending and the
tids of one key in per-key insertion order — exactly the order a scalar walk
of the owner emits — so a closed key range is ``tids[start:stop]`` for two
``searchsorted`` calls.  The view also carries how many distinct keys there
are, which tells a point probe that every key owns exactly one entry (a
primary index) without looking.

An owner that builds itself from one sorted run (``BPlusTree``'s load)
*adopts* the run as its view, so it starts current and no read pays for a
walk of its Python objects.  From then on the view is maintained, not
dropped, by writes.  A mutator *records* what it did (one list append per
entry); the next batched probe — or the single probe whose predecessors'
scalar work has paid for it — *folds* everything recorded since the last
fold into the cached arrays.  An insert fold of ``d`` entries into ``n``
sorts the ``d`` keys, places each at the end of its key's run with one
``searchsorted``, and writes both arrays once through one boolean mask of
the old entries' places; a delete fold reads the contiguous runs of the
deleted keys — once per key however many deletes hit it, so never more than
``n`` entries in all — and keeps the survivors with one mask.  Either costs
``O(d log n)`` plus two masked copies of ``n`` against the ``O(n)`` walk of
Python objects a rebuild pays, keeps the distinct-key count from what it
already searched (plus, for inserts, one more ``searchsorted`` of the ``d``
keys), and is bit-identical (dtype included) to flattening the owner from
scratch.

Folding can ignore how inserts and deletes were interleaved.  Entries of one
``(key, tid)`` pair are indistinguishable, the owner appends inserts at the
end of a key's run and removes the first occurrence on delete, so ``k``
deletes of a pair always remove its first ``k`` occurrences in *final* run
order — whatever was inserted in between.  Only the relative order of the
inserts matters, and the record keeps it.

The view gives up — the arrays are dropped and the next probe that wants
them re-flattens the owner — when the recorded entries exceed a quarter of
the entries in the arrays (a fold is no longer much cheaper than a rebuild,
and the record must not grow without bound under a write-only phase), when
recorded tids do not fit the arrays' dtype, or when a recorded delete cannot
be found (the owner and the view disagree; rebuilding is the safe answer).
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.segments import run_indices, sorted_unique
from repro.storage.identifiers import TupleId


class FlatArrays(NamedTuple):
    """The view's arrays: entry ``i`` is ``keys[i] -> tids[i]``."""

    keys: np.ndarray    # float64, ascending, one per entry
    tids: np.ndarray    # aligned with keys; one key's tids in insertion order
    num_keys: int       # distinct keys among ``keys``


# What the owner hands over for a cold build: its distinct keys ascending
# and, aligned, each key's tid bucket.
Snapshot = Callable[[], tuple[Sequence[float], Sequence[Sequence[TupleId]]]]

# Recorded entries are folded while they number at most 1/_FOLD_SHARE of the
# entries in the arrays; beyond that the view is dropped.
_FOLD_SHARE = 4


def flatten(keys: Sequence[float],
            buckets: Sequence[Sequence[TupleId]]) -> FlatArrays:
    """Build the arrays from sorted distinct keys and their (non-empty) buckets."""
    counts = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
    return FlatArrays(np.repeat(np.asarray(keys, dtype=np.float64), counts),
                      _typed_tids(list(chain.from_iterable(buckets))),
                      len(keys))


def _typed_tids(items: list[TupleId],
                tid_array: np.ndarray | None = None) -> np.ndarray:
    """The view's tids for ``items``: ints as int64, floats as float64,
    anything else as numpy types the list (empty: int64).

    ``tid_array``, the same tids in the same order as an array, is reused
    (uncopied where its dtype already is the view's) instead of converting
    the list, whenever that gives the same dtype.
    """
    if tid_array is not None:
        if tid_array.dtype.kind == "f":
            return tid_array.astype(np.float64, copy=False)
        if (tid_array.dtype.kind in "iu"
                and np.can_cast(tid_array.dtype, np.int64)):
            return tid_array.astype(np.int64, copy=False)
    return np.asarray(items) if items else np.empty(0, dtype=np.int64)


class FlatView:
    """The cached arrays, the writes recorded since, and the debt.

    The view is *absent* (no arrays), *current* (arrays, nothing recorded)
    or *stale* (arrays, writes recorded).  The debt is the amortisation
    account of bringing it current: a probe that may not trigger that work
    (:meth:`worth_using`) goes the owner's scalar way and charges what that
    cost (:meth:`charge`).

    Writers are serialised against readers by the owner's caller (the
    engine's epoch lock); concurrent *readers* are not, and the first of
    them to arrive after a write folds for all, so :meth:`arrays` holds a
    lock while it brings the arrays up to date.
    """

    __slots__ = ("_arrays", "_debt", "_added_keys", "_added_tids",
                 "_removed_keys", "_removed_tids", "_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._arrays: FlatArrays | None = None
        self._debt = 0
        self._added_keys: list[float] = []
        self._added_tids: list[TupleId] = []
        self._removed_keys: list[float] = []
        self._removed_tids: list[TupleId] = []

    # ----------------------------------------------------------- write side

    def record_insert(self, key: float, tid: TupleId) -> None:
        """The owner appended ``tid`` to ``key``'s bucket."""
        if self._arrays is not None:
            self._added_keys.append(key)
            self._added_tids.append(tid)
            self._drop_if_overgrown()

    def record_insert_many(self, keys: Sequence[float],
                           tids: Sequence[TupleId]) -> None:
        """The owner appended each ``tids[i]`` to ``keys[i]``'s bucket, in order."""
        if self._arrays is not None:
            self._added_keys.extend(keys)
            self._added_tids.extend(tids)
            self._drop_if_overgrown()

    def record_delete(self, key: float, tid: TupleId) -> None:
        """The owner removed the first ``tid`` from ``key``'s bucket."""
        if self._arrays is not None:
            self._removed_keys.append(key)
            self._removed_tids.append(tid)
            self._drop_if_overgrown()

    def drop(self) -> None:
        """Forget the arrays and the record (the owner was replaced wholesale)."""
        self._arrays = None
        self._forget_record()

    def adopt(self, keys: np.ndarray, tids: list[TupleId], num_keys: int,
              tid_array: np.ndarray | None = None) -> None:
        """Take a sorted run as the current view (the owner was built from it).

        ``keys`` (float64, ascending, one per entry) and ``tids`` (aligned,
        in per-key insertion order) are the new owner's entries in the order
        :func:`flatten` lays them out, and ``num_keys`` counts the distinct
        keys; ``tid_array`` optionally holds the same tids as an array, which
        spares converting the list.  The tids are typed as :func:`flatten`
        types them.  The view keeps ``keys`` and, where its dtype already
        fits, ``tid_array`` without copying, so the caller must not write to
        them afterwards.
        """
        self._arrays = FlatArrays(keys, _typed_tids(tids, tid_array), num_keys)
        self._forget_record()
        self._debt = 0

    def _forget_record(self) -> None:
        self._added_keys.clear()
        self._added_tids.clear()
        self._removed_keys.clear()
        self._removed_tids.clear()

    def _drop_if_overgrown(self) -> None:
        recorded = len(self._added_keys) + len(self._removed_keys)
        if _FOLD_SHARE * recorded > self._arrays.keys.size:
            self.drop()

    # ------------------------------------------------------------ read side

    def worth_using(self, projected_cost: int, num_entries: int,
                    batch: bool) -> bool:
        """Should this probe go through the arrays?

        A *current* view is always used.  A batched probe also uses a
        *stale* one: the fold costs a merge of what was written, which the
        batch amortises and every probe after it inherits.  A single probe
        must not pay ``O(n)`` for another caller's write, so on a stale
        view — as any probe on an absent one — it keeps to the scalar body
        until the scalar work charged since the view stopped being current
        plus this probe's projected overhead (both in entry-equivalents)
        would have paid for a flatten.  So rare small batches on a big
        structure and reads interleaved with per-row writes never pay
        ``O(n)``, while steady read traffic converges to the array path
        after a bounded amount of scalar work.
        """
        if self._arrays is not None and (
                batch or not (self._added_keys or self._removed_keys)):
            return True
        return self._debt + projected_cost >= num_entries

    def charge(self, cost: int) -> None:
        """Account the scalar work of a probe that went without the arrays."""
        self._debt += cost

    def arrays(self, snapshot: Snapshot) -> FlatArrays:
        """Bring the view current (fold the record, or build cold): debt paid."""
        with self._lock:
            if self._arrays is not None and (self._added_keys
                                             or self._removed_keys):
                self._arrays = self._folded()
            if self._arrays is None:
                self.drop()
                self._arrays = flatten(*snapshot())
            self._debt = 0
            return self._arrays

    def _folded(self) -> FlatArrays | None:
        """The arrays with the record merged in; ``None`` to give up."""
        arrays = self._arrays
        added_tids = _tids_as(self._added_tids, arrays.tids.dtype)
        removed_tids = _tids_as(self._removed_tids, arrays.tids.dtype)
        if added_tids is None or removed_tids is None:
            return None
        if added_tids.size:
            arrays = _fold_inserts(
                arrays, np.asarray(self._added_keys, dtype=np.float64),
                added_tids,
            )
        if removed_tids.size:
            arrays = _fold_deletes(
                arrays, np.asarray(self._removed_keys, dtype=np.float64),
                removed_tids,
            )
        if arrays is not None:
            self._forget_record()
        return arrays


def _tids_as(recorded: list[TupleId], dtype: np.dtype) -> np.ndarray | None:
    """Recorded tids as an array of the view's dtype, ``None`` if they do not fit.

    Only int64 / float64 views are folded (anything else is a structure
    holding tids numpy cannot type), and only records that convert without
    a cast numpy calls unsafe — so the folded dtype is the one a from-scratch
    flatten of the same buckets arrives at.
    """
    if not recorded:
        return np.empty(0, dtype=dtype)
    array = np.asarray(recorded)
    if (dtype.kind not in "if" or array.ndim != 1
            or not np.can_cast(array.dtype, dtype, casting="safe")):
        return None
    return array.astype(dtype, copy=False)


def _fold_inserts(arrays: FlatArrays, new_keys: np.ndarray,
                  new_tids: np.ndarray) -> FlatArrays:
    """Append every ``new_tids[i]`` at the end of ``new_keys[i]``'s run."""
    keys, tids, num_keys = arrays
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
    return FlatArrays(_spliced(keys, old, places, new_keys),
                      _spliced(tids, old, places, new_tids),
                      num_keys + int(np.count_nonzero(fresh)))


def _spliced(values: np.ndarray, old: np.ndarray, places: np.ndarray,
             new_values: np.ndarray) -> np.ndarray:
    """``values`` at the ``old`` places and ``new_values`` at ``places``."""
    out = np.empty(old.size, dtype=values.dtype)
    out[old] = values
    out[places] = new_values
    return out


def _fold_deletes(arrays: FlatArrays, gone_keys: np.ndarray,
                  gone_tids: np.ndarray) -> FlatArrays | None:
    """Remove, per ``(key, tid)`` pair deleted ``k`` times, its first ``k`` entries.

    Returns ``None`` when some pair has fewer entries than deletes.  The run
    of every deleted key is read once however many deletes hit it, so the
    work is bounded by the size of the view even when a few heavily
    duplicated keys own all the entries.
    """
    keys, tids, num_keys = arrays
    starts = keys.searchsorted(gone_keys, side="left")
    if (starts == keys.searchsorted(gone_keys, side="right")).any():
        return None
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
    entries, positions = entries[order], positions[order]
    first = np.searchsorted(entries, pairs, side="left")
    last = first + wanted - 1
    if last.max() >= entries.size or (entries[last] != pairs).any():
        return None
    keep = np.ones(keys.size, dtype=bool)
    keep[positions[run_indices(first, first + wanted)[0]]] = False
    # A run is emptied when it took as many deletes as it had entries.
    deletes = np.bincount(np.searchsorted(touched, starts),
                          minlength=touched.size)
    emptied = int(np.count_nonzero(deletes == stops - touched))
    return FlatArrays(keys[keep], tids[keep], num_keys - emptied)
