"""Segmented array primitives for batched query execution.

A *segmented array* represents B per-query arrays in two flat ndarrays:
``values`` holds every element back to back, and ``offsets`` (length
``B + 1``, int64) marks the boundaries — query ``i`` owns
``values[offsets[i]:offsets[i + 1]]``.  The batched executor keeps every
per-query intermediate (candidate tids, resolved locations, validated
matches) in this layout so that a batch of B queries costs a constant
number of numpy passes instead of B Python-level pipelines: dedup,
intersection, filtering and sorting are all expressed as one ``lexsort`` /
``bincount`` / boolean-mask pass over the concatenation.

Every function tolerates empty segments and an empty batch; ``offsets`` is
always a valid cumulative-size array even when ``values`` is empty.

The module sits at the bottom of the layer stack (alongside ``errors``) so
the index structures, the mechanisms and the engine can all share it.
"""

# repro: hot-module
# (repro.analysis REP004: no per-element Python loops over arrays here)

from __future__ import annotations

from typing import Sequence

import numpy as np

_EMPTY_INT64 = np.empty(0, dtype=np.int64)


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


def _composite_keys(values: np.ndarray, ids: np.ndarray,
                    num_segments: int) -> tuple[np.ndarray | None, int, int]:
    """Fold ``(segment, value)`` pairs into one sortable int64 key.

    Integer tid arrays (physical pointers, resolved locations) almost
    always have a value span small enough that ``segment * span + value``
    fits in an int64; sorting that composite with one single-key quicksort
    is several times faster than the two stable passes of ``np.lexsort``,
    and the key decomposes back into ``(segment, value)`` with a divmod.
    Returns ``(None, 0, 0)`` when the fold would overflow or the values are
    floats (logical primary keys) — callers fall back to lexsort.
    """
    if values.dtype.kind not in "iu" or values.size == 0:
        return None, 0, 0
    minimum = int(values.min())
    span = int(values.max()) - minimum + 1
    if span > (2 ** 62) // max(num_segments, 1):
        return None, 0, 0
    composite = ids * span
    composite += values.astype(np.int64, copy=False)
    composite -= minimum
    return composite, span, minimum


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
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def segmented_sort(values: np.ndarray,
                   offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort every segment ascending in one pass."""
    if values.size == 0:
        return values, offsets
    ids = segment_ids(offsets)
    composite, span, minimum = _composite_keys(values, ids, offsets.size - 1)
    if composite is None:
        order = np.lexsort((values, ids))
        return values[order], offsets
    composite.sort()
    composite %= span
    composite += minimum
    return composite.astype(values.dtype, copy=False), offsets


def segmented_unique(values: np.ndarray,
                     offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment :func:`sorted_unique` in one sort + one mask pass.

    Every output segment is sorted ascending with duplicates removed.
    """
    if values.size == 0:
        return values, offsets
    num_segments = offsets.size - 1
    ids = segment_ids(offsets)
    composite, span, minimum = _composite_keys(values, ids, num_segments)
    if composite is not None:
        composite = sorted_unique(composite)
        kept_ids, kept_values = np.divmod(composite, span)
        kept_values += minimum
        counts = np.bincount(kept_ids, minlength=num_segments)
        return (kept_values.astype(values.dtype, copy=False),
                offsets_from_counts(counts))
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
    ids = np.concatenate([segment_ids(a_offsets), segment_ids(b_offsets)])
    values = np.concatenate([a_values, b_values])
    composite, span, minimum = _composite_keys(values, ids, num_segments)
    if composite is not None:
        composite.sort()
        matched = composite[1:][composite[1:] == composite[:-1]]
        matched_ids, matched_values = np.divmod(matched, span)
        matched_values += minimum
        counts = np.bincount(matched_ids, minlength=num_segments)
        return (matched_values.astype(values.dtype, copy=False),
                offsets_from_counts(counts))
    order = np.lexsort((values, ids))
    ids = ids[order]
    values = values[order]
    matched = (ids[1:] == ids[:-1]) & (values[1:] == values[:-1])
    out = values[1:][matched]
    counts = np.bincount(ids[1:][matched], minlength=num_segments)
    return out, offsets_from_counts(counts)


def segmented_filter(values: np.ndarray, offsets: np.ndarray,
                     mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the masked elements, recomputing the segment boundaries."""
    if values.size == 0:
        return values, offsets
    counts = np.bincount(segment_ids(offsets)[mask],
                         minlength=offsets.size - 1)
    return values[mask], offsets_from_counts(counts)
