"""The segmented primitives against their per-segment NumPy definitions.

``segmented_sort``, ``segmented_unique``, ``segmented_intersect`` and
``segmented_filter`` each do one pass over a whole batch; every property
here splits the batch back into its segments and compares each with
``np.sort`` / ``np.unique`` / ``np.intersect1d`` / a boolean mask.  Integer
batches fold ``(segment, value)`` into one key — 32 bits wide when the
batch's segment count times its value span is at most ``2**32``, 64 bits
up to ``2**62``, and a ``lexsort`` past that or for floats — so the
extents at and around both limits are drawn on purpose, with negative,
unsigned and narrow dtypes whose arithmetic wraps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.segments import (
    _fold,
    offsets_from_counts,
    segmented_filter,
    segmented_intersect,
    segmented_sort,
    segmented_unique,
    split_segments,
)

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

INTEGER_DTYPES = (np.int64, np.uint64, np.int32, np.uint32, np.int8,
                  np.uint8)
DTYPES = INTEGER_DTYPES + (np.float64,)

# (segments, span) pairs whose product is one of the key-width limits:
# 2**32 - 1 and 2**32 still fold into uint32, 2**32 + 1 into int64, 2**62
# is the widest int64 fold and anything past it sorts by lexsort.
EXTENTS = {
    2 ** 32 - 1: [(1, 2 ** 32 - 1), (3, 1_431_655_765), (255, 16_843_009)],
    2 ** 32: [(1, 2 ** 32), (4, 2 ** 30), (256, 2 ** 24)],
    2 ** 32 + 1: [(1, 2 ** 32 + 1), (641, 6_700_417)],
    2 ** 62: [(1, 2 ** 62), (4, 2 ** 60)],
    2 ** 62 + 2: [(1, 2 ** 62 + 2), (2, 2 ** 61 + 1)],
}
KEY_DTYPES = {2 ** 32 - 1: np.uint32, 2 ** 32: np.uint32,
              2 ** 32 + 1: np.int64, 2 ** 62: np.int64, 2 ** 62 + 2: None}


def segmented(segments, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(values, offsets)`` of a list of per-segment value lists."""
    values = np.array([value for segment in segments for value in segment],
                      dtype=dtype)
    offsets = offsets_from_counts(
        np.array([len(segment) for segment in segments], dtype=np.int64))
    return values, offsets


@st.composite
def batches(draw, count: int = 1):
    """``count`` aligned segmented arrays of one dtype and one value range.

    Later arrays reuse some of the first one's values per segment, so
    intersections and cross-array duplicates are not all empty.
    """
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    num_segments = draw(st.integers(0, 6))
    if dtype.kind == "f":
        elements = st.floats(-1e12, 1e12, allow_nan=False)
    else:
        info = np.iinfo(dtype)
        span = min(draw(st.sampled_from([1, 3, 40, 2 ** 20, 2 ** 33,
                                         2 ** 61, 2 ** 64])),
                   int(info.max) - int(info.min) + 1)
        low = draw(st.integers(int(info.min), int(info.max) - span + 1))
        elements = st.integers(low, low + span - 1)
    first = [draw(st.lists(elements, max_size=8))
             for _ in range(num_segments)]
    arrays = [first]
    for _ in range(count - 1):
        arrays.append([
            draw(st.lists(st.sampled_from(segment), max_size=4)
                 if segment else st.just([]))
            + draw(st.lists(elements, max_size=6))
            for segment in first])
    return [segmented(segments, dtype) for segments in arrays]


@st.composite
def extreme_batches(draw):
    """A batch whose ``segments x span`` sits at one of the key limits."""
    extent = draw(st.sampled_from(sorted(EXTENTS)))
    num_segments, span = draw(st.sampled_from(EXTENTS[extent]))
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.uint64])))
    info = np.iinfo(dtype)
    low = draw(st.integers(int(info.min), int(info.max) - span + 1))
    high = low + span - 1
    elements = st.integers(low, high)
    segments = [draw(st.lists(elements, max_size=5))
                for _ in range(num_segments)]
    # The extremes themselves fix the span: the minimum in a drawn
    # segment, the maximum in another (or the same) one.
    segments[draw(st.integers(0, num_segments - 1))].append(low)
    segments[draw(st.integers(0, num_segments - 1))].append(high)
    return extent, segmented(segments, dtype)


def unchanged(call, *arrays):
    """Run ``call`` and check it left its input arrays as they were."""
    copies = [array.copy() for array in arrays]
    result = call()
    for array, copy in zip(arrays, copies):
        assert np.array_equal(array, copy)
    return result


def assert_segments(values, offsets, expected, dtype) -> None:
    """The segmented result holds exactly ``expected``, in ``dtype``."""
    assert values.dtype == dtype
    assert offsets.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == values.size
    assert len(offsets) == len(expected) + 1
    for got, want in zip(split_segments(values, offsets), expected):
        assert got.tolist() == want.tolist()


def check_sort(values, offsets) -> None:
    got, got_offsets = unchanged(lambda: segmented_sort(values, offsets),
                                 values, offsets)
    assert np.array_equal(got_offsets, offsets)
    assert_segments(got, got_offsets,
                    [np.sort(part) for part in split_segments(values, offsets)],
                    values.dtype)


def check_unique(values, offsets) -> None:
    got = unchanged(lambda: segmented_unique(values, offsets), values, offsets)
    assert_segments(*got, [np.unique(part)
                           for part in split_segments(values, offsets)],
                    values.dtype)


def check_unique_spliced(values, offsets, extra, extra_offsets) -> None:
    got = unchanged(
        lambda: segmented_unique(values, offsets, extra, extra_offsets),
        values, offsets, extra, extra_offsets)
    expected = [np.unique(np.concatenate([a, b])) for a, b in zip(
        split_segments(values, offsets), split_segments(extra, extra_offsets))]
    assert_segments(*got, expected, np.result_type(values, extra))


def check_intersect(a, a_offsets, b, b_offsets) -> None:
    pairs = list(zip(split_segments(a, a_offsets),
                     split_segments(b, b_offsets)))
    got = unchanged(lambda: segmented_intersect(a, a_offsets, b, b_offsets),
                    a, a_offsets, b, b_offsets)
    assert_segments(*got, [np.intersect1d(x, y) for x, y in pairs], a.dtype)
    # The access paths' contract: both sides already unique per segment.
    a, a_offsets = segmented_unique(a, a_offsets)
    b, b_offsets = segmented_unique(b, b_offsets)
    got = segmented_intersect(a, a_offsets, b, b_offsets, assume_unique=True)
    assert_segments(*got, [np.intersect1d(x, y) for x, y in pairs], a.dtype)


class TestAgainstPerSegmentNumpy:
    @SETTINGS
    @given(batches())
    def test_sort(self, batch):
        check_sort(*batch[0])

    @SETTINGS
    @given(batches())
    def test_unique(self, batch):
        check_unique(*batch[0])

    @SETTINGS
    @given(batches(count=2))
    def test_unique_with_a_spliced_array(self, batch):
        (values, offsets), (extra, extra_offsets) = batch
        check_unique_spliced(values, offsets, extra, extra_offsets)

    @SETTINGS
    @given(batches(count=2))
    def test_intersect(self, batch):
        (a, a_offsets), (b, b_offsets) = batch
        check_intersect(a, a_offsets, b, b_offsets)

    @SETTINGS
    @given(batches(), st.data())
    def test_filter(self, batch, data):
        values, offsets = batch[0]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=values.size,
                                           max_size=values.size)), dtype=bool)
        got = unchanged(lambda: segmented_filter(values, offsets, mask),
                        values, offsets, mask)
        expected = [part[keep] for part, keep in zip(
            split_segments(values, offsets), split_segments(mask, offsets))]
        assert_segments(*got, expected, values.dtype)


class TestKeyWidthLimits:
    """``segments x span`` at ``2**32 - 1``, ``2**32``, ``2**32 + 1``, ``2**62``
    and past it: each takes the key it should and answers alike."""

    @SETTINGS
    @given(extreme_batches())
    @example((2 ** 32, segmented([[0], [], [], [2 ** 30 - 1]], np.int64)))
    @example((2 ** 32 + 1, segmented([[-(2 ** 63) + 2 ** 32, -(2 ** 63)]],
                                     np.int64)))
    @example((2 ** 62 + 2, segmented([[2 ** 64 - 1], [2 ** 64 - 2 - 2 ** 61]],
                                     np.uint64)))
    def test_every_primitive(self, case):
        extent, (values, offsets) = case
        fold = _fold([(values, offsets)], offsets.size - 1)
        key_dtype = KEY_DTYPES[extent]
        assert (fold is None if key_dtype is None
                else fold.keys.dtype == key_dtype)
        check_sort(values, offsets)
        check_unique(values, offsets)
        reversed_values = values[::-1].copy()
        check_unique_spliced(values, offsets, reversed_values,
                             offsets[-1] - offsets[::-1])
        check_intersect(values, offsets, reversed_values,
                        offsets[-1] - offsets[::-1])
        mask = np.arange(values.size) % 3 != 1
        got = segmented_filter(values, offsets, mask)
        assert_segments(*got, [part[keep] for part, keep in zip(
            split_segments(values, offsets), split_segments(mask, offsets))],
            values.dtype)


class TestEmpty:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("num_segments", [0, 1, 4])
    def test_empty_batches(self, dtype, num_segments):
        values, offsets = segmented([[]] * num_segments, dtype)
        check_sort(values, offsets)
        check_unique(values, offsets)
        check_unique_spliced(values, offsets, values, offsets)
        check_intersect(values, offsets, values, offsets)
        got = segmented_filter(values, offsets, np.zeros(0, dtype=bool))
        assert_segments(*got, [values] * num_segments, values.dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_side_empty(self, dtype):
        values, offsets = segmented([[5, 1], [], [3, 3, 2]], dtype)
        empty, empty_offsets = segmented([[], [], []], dtype)
        check_unique_spliced(values, offsets, empty, empty_offsets)
        check_unique_spliced(empty, empty_offsets, values, offsets)
        check_intersect(values, offsets, empty, empty_offsets)
        check_intersect(empty, empty_offsets, values, offsets)
