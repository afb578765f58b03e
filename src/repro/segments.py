"""Segmented array primitives for batched query execution.

A *segmented array* represents B per-query arrays in two flat ndarrays:
``values`` holds every element back to back, and ``offsets`` (length
``B + 1``, int64) marks the boundaries — query ``i`` owns
``values[offsets[i]:offsets[i + 1]]``.  The batched executor keeps every
per-query intermediate (candidate tids, resolved locations, validated
matches) in this layout so that a batch of B queries costs a constant
number of numpy passes instead of B Python-level pipelines: sorting, dedup
and intersection are one sort of a key that folds ``(segment, value)``
into one integer (32 bits wide for a typical batch), and filtering is one
gather plus one ``searchsorted`` for the new boundaries.

Every function tolerates empty segments and an empty batch; ``offsets`` is
always a valid cumulative-size array even when ``values`` is empty.

The module sits at the bottom of the layer stack (alongside ``errors``) so
the index structures, the mechanisms and the engine can all share it.
"""

# repro: hot-module
# (repro.analysis REP004: no per-element Python loops over arrays here)

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

_EMPTY_INT64 = np.empty(0, dtype=np.int64)
# Folded keys of a batch that spans at most this many fit in uint32 ...
_NARROW_KEYS = 2 ** 32
# ... and at most this many in int64; past it the batch sorts by lexsort.
_WIDE_KEYS = 2 ** 62


def empty_offsets(num_segments: int) -> np.ndarray:
    """Offsets of ``num_segments`` empty segments."""
    return np.zeros(num_segments + 1, dtype=np.int64)


def concat_segments(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-query arrays into one segmented array.

    Returns:
        ``(values, offsets)`` with ``offsets[i]`` the start of ``arrays[i]``.
    """
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    if arrays:
        np.cumsum([array.size for array in arrays], out=offsets[1:])
    filled = [array for array in arrays if array.size]
    if not filled:
        return _EMPTY_INT64, offsets
    if len(filled) == 1:
        return filled[0], offsets
    return np.concatenate(filled), offsets


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment index of every element: ``[0,0,...,1,1,...]``."""
    counts = np.diff(offsets)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def split_segments(values: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Materialise the per-query arrays (views into ``values``)."""
    return [values[offsets[i]:offsets[i + 1]]
            for i in range(offsets.size - 1)]


def offsets_from_counts(counts: np.ndarray) -> np.ndarray:
    """Build an offsets array from per-segment element counts."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def group_order(ids: np.ndarray,
                num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """A stable order that groups elements by ``ids``, and the groups' offsets.

    ``ids`` lie in ``[0, num_groups)``.  Gathering an array by ``order``
    puts group ``g`` at ``offsets[g]:offsets[g + 1]``, its elements in
    their original order — what ``values[ids == g]`` gives, for every
    group in one sort instead of one mask each.  The ids are narrowed to
    the smallest unsigned type first, so a few hundred groups take
    numpy's radix sort.
    """
    narrow = ids.astype(np.min_scalar_type(max(num_groups - 1, 0)), copy=False)
    return (np.argsort(narrow, kind="stable"),
            offsets_from_counts(np.bincount(ids, minlength=num_groups)))


def bound_positions(values: np.ndarray, bounds: Sequence[float]) -> np.ndarray:
    """``np.searchsorted(bounds, values, side="right")`` for a few bounds.

    Counts the ascending ``bounds`` at or below each value, one comparison
    pass per bound: 3-4x faster than a binary search per value at the
    TRS-Tree's 3 or 7 interior bounds.  NaN, last in numpy's order, is past
    every bound, and a NaN bound is past every other value.  The positions
    come in the smallest unsigned type that holds ``len(bounds)``.
    """
    positions = np.zeros(values.shape, dtype=np.min_scalar_type(len(bounds)))
    past = np.empty(values.shape, dtype=bool)
    # repro: ignore[REP004] -- one array pass per bound, of a handful
    for bound in bounds:
        positions += np.greater_equal(values, bound, out=past)
    positions[np.isnan(values)] = len(bounds)
    return positions


def run_indices(starts: np.ndarray,
                stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices covering every ``[starts[i], stops[i])`` run.

    The vectorized "multi-arange": one pass builds the index array that
    fancy-indexes all runs out of a flat array, plus the offsets that keep
    the per-run boundaries.  This is how a whole batch of sorted-array
    range probes turns into a single gather.
    """
    sizes = np.maximum(stops - starts, 0).astype(np.int64)
    offsets = offsets_from_counts(sizes)
    total = int(offsets[-1])
    if total == 0:
        return _EMPTY_INT64, offsets
    indices = np.arange(total, dtype=np.int64)
    indices += np.repeat(np.asarray(starts, dtype=np.int64) - offsets[:-1],
                         sizes)
    return indices, offsets


def interleave_segments(a_values: np.ndarray, a_offsets: np.ndarray,
                        b_values: np.ndarray, b_offsets: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment concatenation of two aligned segmented arrays.

    Output segment ``i`` is ``a``'s segment ``i`` followed by ``b``'s —
    the vectorized form of the splice loop that interleaves host-probe runs
    with per-query outlier tids: two scatter passes instead of ``2B``
    Python-level list appends.
    """
    a_sizes = np.diff(a_offsets)
    b_sizes = np.diff(b_offsets)
    offsets = offsets_from_counts(a_sizes + b_sizes)
    if a_values.size == 0 and b_values.size == 0:
        return _EMPTY_INT64, offsets
    out = np.empty(a_values.size + b_values.size,
                   dtype=np.result_type(a_values, b_values))
    if a_values.size:
        positions = np.arange(a_values.size, dtype=np.int64)
        positions += np.repeat(offsets[:-1] - a_offsets[:-1], a_sizes)
        out[positions] = a_values
    if b_values.size:
        positions = np.arange(b_values.size, dtype=np.int64)
        positions += np.repeat(offsets[:-1] + a_sizes - b_offsets[:-1],
                               b_sizes)
        out[positions] = b_values
    return out, offsets


def running_segment_max(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Inclusive per-segment running maximum (``ids`` must be nondecreasing).

    A Hillis–Steele doubling scan: ``log2(n)`` masked ``np.maximum`` passes
    instead of one Python loop over the elements.  Element ``i`` of the
    result is ``max(values[j] for j <= i with ids[j] == ids[i]]``.
    """
    run = np.asarray(values, dtype=np.float64).copy()
    distance = 1
    while distance < run.size:
        same = ids[distance:] == ids[:-distance]
        candidate = np.where(same, run[:-distance], -np.inf)
        np.maximum(run[distance:], candidate, out=run[distance:])
        distance *= 2
    return run


class _Fold(NamedTuple):
    """``(segment, value)`` pairs folded into one integer key each.

    The key of value ``v`` in segment ``k`` is ``k * span + v - minimum``,
    so sorting the keys sorts by segment, then by value.  ``starts[k]`` is
    segment ``k``'s first key (``k * span``), in the key dtype; ``minimum``
    is in the value dtype.
    """

    keys: np.ndarray
    starts: np.ndarray
    minimum: np.generic


def _fold(parts: Sequence[tuple[np.ndarray, np.ndarray]],
          num_segments: int) -> _Fold | None:
    """Fold the elements of aligned segmented arrays into sortable keys.

    Integer tid arrays (physical pointers, resolved locations) almost
    always have a value span small enough that ``segment * span + value``
    fits in 32 bits for a whole batch: one quicksort of that narrow key is
    several times faster than the two stable passes of ``np.lexsort``, and
    moves half the bytes of an int64 key.  Up to ``2**62`` the key is an
    int64.  The parts' keys follow each other in ``parts`` order, each
    part's in segment order.  Returns ``None`` when every part is empty, a
    part holds non-integers (logical primary keys) or the key would
    overflow; callers then fall back to lexsort.

    Every step is modular arithmetic in the width of the key (or of the
    value), exact because each true key and value fits its type — so
    negative and uint64 values fold without a widening pass.
    """
    dtype = np.result_type(*(values for values, _ in parts))
    filled = [values for values, _ in parts if values.size]
    if dtype.kind not in "iu" or not filled:
        return None
    minimum = dtype.type(min(values.min() for values in filled))
    span = int(max(values.max() for values in filled)) - int(minimum) + 1
    if num_segments * span > _WIDE_KEYS:
        return None
    key_dtype = np.uint32 if num_segments * span <= _NARROW_KEYS else np.int64
    starts = np.arange(num_segments, dtype=np.uint64) * np.uint64(span)
    shifts = (starts - np.uint64(int(minimum) % 2 ** 64)).astype(key_dtype)
    keys = np.repeat(np.tile(shifts, len(parts)),
                     np.concatenate([np.diff(offsets) for _, offsets in parts]))
    position = 0
    # repro: ignore[REP004] -- one array pass per part, of one or two
    for values, _ in parts:
        run = keys[position:position + values.size]
        run += values.astype(key_dtype, copy=False)
        position += values.size
    return _Fold(keys, starts.astype(key_dtype), minimum)


def _unfold(fold: _Fold, keys: np.ndarray,
            offsets: np.ndarray | None = None,
            ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys (a subset of ``fold.keys``) back to ``(values, offsets)``.

    The segment boundaries are one ``searchsorted`` of the segment starts,
    unless the caller already knows them (``offsets``); the values are one
    repeat-subtract of the starts, in place in the narrow key, plus the
    minimum.  ``keys`` is consumed.
    """
    if offsets is None:
        offsets = np.empty(fold.starts.size + 1, dtype=np.int64)
        offsets[:-1] = keys.searchsorted(fold.starts)
        offsets[-1] = keys.size
    keys -= np.repeat(fold.starts, np.diff(offsets))
    values = keys.astype(fold.minimum.dtype, copy=False)
    values += fold.minimum
    return values, offsets


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct elements ascending: one sort plus one neighbour mask.

    Sorts ``values`` **in place** — pass an array the caller owns (a
    concatenation, a gather, a copy), never a view of index storage.  This
    is the dedup primitive of the lookup path; ``numpy.unique`` is not used
    because NumPy 2.x answers it with a hash pass that costs ~20x this on
    the 50k-element candidate arrays of a range batch.
    """
    if values.size < 2:
        return values
    values.sort()
    distinct = values[1:] != values[:-1]
    if distinct.all():
        return values
    return values[np.concatenate(([True], distinct))]


def segmented_sort(values: np.ndarray,
                   offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort every segment ascending in one pass."""
    if values.size == 0:
        return values, offsets
    fold = _fold([(values, offsets)], offsets.size - 1)
    if fold is None:
        order = np.lexsort((values, segment_ids(offsets)))
        return values[order], offsets
    fold.keys.sort()
    return _unfold(fold, fold.keys, offsets)[0], offsets


def segmented_unique(values: np.ndarray, offsets: np.ndarray,
                     extra_values: np.ndarray | None = None,
                     extra_offsets: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment :func:`sorted_unique` in one sort + one mask pass.

    Every output segment is sorted ascending with duplicates removed.  With
    ``extra_values`` / ``extra_offsets`` (an aligned segmented array),
    segment ``i`` of the output covers both inputs' segment ``i``: the
    second array joins the one sort instead of being spliced in first.
    """
    parts = [(values, offsets)]
    if extra_values is not None:
        parts.append((extra_values, extra_offsets))
    num_segments = offsets.size - 1
    fold = _fold(parts, num_segments)
    if fold is not None:
        return _unfold(fold, sorted_unique(fold.keys))
    values, ids = _tagged(parts)
    order = np.lexsort((values, ids))
    ids = ids[order]
    values = values[order]
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = (ids[1:] != ids[:-1]) | (values[1:] != values[:-1])
    counts = np.bincount(ids[keep], minlength=num_segments)
    return values[keep], offsets_from_counts(counts)


def segmented_intersect(a_values: np.ndarray, a_offsets: np.ndarray,
                        b_values: np.ndarray, b_offsets: np.ndarray,
                        assume_unique: bool = False,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``np.intersect1d`` in one sort pass.

    With ``assume_unique`` both inputs must already be deduplicated within
    every segment (the access paths' contract); otherwise both sides are
    first passed through :func:`segmented_unique`.  An element then lands
    in the intersection exactly when it appears twice — once per side — so
    one sort of the tagged concatenation finds every match.
    """
    num_segments = a_offsets.size - 1
    if a_values.size == 0 or b_values.size == 0:
        return (np.empty(0, dtype=a_values.dtype),
                empty_offsets(num_segments))
    if not assume_unique:
        a_values, a_offsets = segmented_unique(a_values, a_offsets)
        b_values, b_offsets = segmented_unique(b_values, b_offsets)
    parts = [(a_values, a_offsets), (b_values, b_offsets)]
    fold = _fold(parts, num_segments)
    if fold is not None:
        keys = fold.keys
        keys.sort()
        return _unfold(fold, keys[1:][keys[1:] == keys[:-1]])
    values, ids = _tagged(parts)
    order = np.lexsort((values, ids))
    ids = ids[order]
    values = values[order]
    matched = (ids[1:] == ids[:-1]) & (values[1:] == values[:-1])
    counts = np.bincount(ids[1:][matched], minlength=num_segments)
    return values[1:][matched], offsets_from_counts(counts)


def _tagged(parts: Sequence[tuple[np.ndarray, np.ndarray]],
            ) -> tuple[np.ndarray, np.ndarray]:
    """The parts' values concatenated, with every element's segment id."""
    return (np.concatenate([values for values, _ in parts]),
            np.concatenate([segment_ids(offsets) for _, offsets in parts]))


def segmented_filter(values: np.ndarray, offsets: np.ndarray,
                     mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the masked elements, recomputing the segment boundaries.

    A segment's new start is the number of kept elements before its old
    one: one ``searchsorted`` of the old offsets in the kept positions.
    """
    if values.size == 0:
        return values, offsets
    kept = np.flatnonzero(mask)
    return values[kept], kept.searchsorted(offsets)
