"""Tests for the searchsorted-backed sorted-column index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange
from repro.index.bptree import BPlusTree
from repro.index.sorted_column import SortedColumnIndex


def build(pairs) -> SortedColumnIndex:
    pairs = list(pairs)
    index = SortedColumnIndex()
    index.insert_many([key for key, _ in pairs], [tid for _, tid in pairs])
    return index


class TestBulkLoadAndSearch:
    def test_point_search_finds_loaded_keys(self):
        index = build((float(i), i * 10) for i in range(100))
        assert index.search(42.0) == [420]
        assert index.search(999.0) == []
        assert index.num_entries == 100

    def test_duplicate_keys_accumulate(self):
        index = build([(1.0, 7), (1.0, 8), (2.0, 9)])
        assert sorted(index.search(1.0)) == [7, 8]

    def test_batch_into_populated_index_keeps_its_entries(self):
        index = build([(1.0, 1)])
        index.insert_many(np.asarray([2.0]), np.asarray([2]))
        assert list(index.items()) == [(1.0, 1), (2.0, 2)]

    def test_load_rejects_mismatched_lengths(self):
        index = SortedColumnIndex()
        with pytest.raises(StorageError):
            index.insert_many(np.asarray([1.0, 2.0]), np.asarray([1]))

    def test_bulk_load_empty(self):
        index = build([])
        assert index.num_entries == 0
        assert index.search(1.0) == []
        assert index.range_search(KeyRange(0.0, 10.0)) == []


class TestRangeSearch:
    def test_inclusive_bounds(self):
        index = build((float(i), i) for i in range(50))
        assert sorted(index.range_search(KeyRange(10.0, 20.0))) == list(range(10, 21))

    def test_range_search_array_is_contiguous_slice(self):
        index = build((float(i), i) for i in range(50))
        result = index.range_search_array(KeyRange(10.0, 20.0))
        assert isinstance(result, np.ndarray)
        assert result.tolist() == list(range(10, 21))

    def test_range_search_many_array_unions(self):
        index = build((float(i), i) for i in range(30))
        result = index.range_search_many_array([KeyRange(0, 2), KeyRange(10, 12)])
        assert sorted(result.tolist()) == [0, 1, 2, 10, 11, 12]

    def test_search_many_batches_point_probes(self):
        index = build([(1.0, 10), (1.0, 11), (3.0, 30), (9.0, 90)])
        result = index.search_many([1.0, 9.0, 555.0])
        assert sorted(result.tolist()) == [10, 11, 90]


class TestMaintenance:
    def test_insert_keeps_order(self):
        index = build([(1.0, 1), (5.0, 5)])
        index.insert(3.0, 3)
        assert index.range_search(KeyRange(0.0, 10.0)) == [1, 3, 5]

    def test_insert_fractional_logical_pointer(self):
        index = SortedColumnIndex()
        index.insert(1.0, 2.5)
        assert index.search(1.0) == [2.5]

    def test_delete_removes_single_pair(self):
        index = build([(1.0, 1), (1.0, 2)])
        index.delete(1.0, 1)
        assert index.search(1.0) == [2]
        assert index.num_entries == 1

    def test_delete_missing_raises(self):
        index = build([(1.0, 1)])
        with pytest.raises(KeyNotFoundError):
            index.delete(2.0, 1)
        with pytest.raises(KeyNotFoundError):
            index.delete(1.0, 99)


class TestAccounting:
    def test_memory_grows_with_entries(self):
        empty = SortedColumnIndex().memory_bytes()
        index = build((float(i), i) for i in range(1000))
        assert index.memory_bytes() > empty

    def test_items_sorted(self):
        index = build([(float(i % 7), i) for i in range(50)])
        keys = [key for key, _ in index.items()]
        assert keys == sorted(keys)
        assert len(keys) == 50

    def test_base_batch_forms_build_on_the_array_primitives(self):
        """The Index base class derives the multi-range forms and the list
        conveniences from ``range_search_array`` / ``search_many`` alone."""

        class MinimalIndex(BPlusTree):
            range_search_many_array = Index.range_search_many_array
            range_search_segmented = Index.range_search_segmented
            search_many_segmented = Index.search_many_segmented

        index = MinimalIndex()
        for i in range(10):
            index.insert(float(i), i)
        ranges = [KeyRange(2.0, 4.0), KeyRange(50.0, 60.0), KeyRange(8.0, 9.0)]
        assert index.range_search_many_array(ranges).tolist() == [2, 3, 4, 8, 9]
        values, offsets = index.range_search_segmented(ranges)
        assert values.tolist() == [2, 3, 4, 8, 9]
        assert offsets.tolist() == [0, 3, 3, 5]
        values, offsets = index.search_many_segmented(
            np.array([1.0, 77.0, 3.0]), np.array([0, 2, 3]))
        assert values.tolist() == [1, 3] and offsets.tolist() == [0, 1, 2]
        assert index.range_search(KeyRange(2.0, 4.0)) == [2, 3, 4]
        assert index.search(5.0) == [5] and index.search(50.0) == []
        empty = index.range_search_many_array([KeyRange(50.0, 60.0)])
        assert isinstance(empty, np.ndarray) and empty.size == 0


class TestAgainstBPlusTree:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 10_000)),
                    max_size=200),
           st.tuples(st.integers(-10, 210), st.integers(0, 100)))
    def test_matches_bptree_on_ranges(self, pairs, bounds):
        """Sorted-column and B+-tree agree on every probe, scalar and array."""
        sorted_index = SortedColumnIndex()
        tree = BPlusTree(node_capacity=4)
        sorted_index.insert_many([float(k) for k, _ in pairs],
                                 [v for _, v in pairs])
        for key, value in pairs:
            tree.insert(float(key), value)
        low, width = bounds
        probe = KeyRange(float(low), float(low + width))
        assert sorted(sorted_index.range_search(probe)) == \
            sorted(tree.range_search(probe))
        assert sorted(sorted_index.range_search_array(probe).tolist()) == \
            sorted(tree.range_search_array(probe).tolist())
