"""Unit tests for the paged B+-tree index."""

import numpy as np
import pytest

from repro.errors import KeyNotFoundError
from repro.index.base import KeyRange
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager


class TestPagedBPlusTree:
    @pytest.fixture
    def tree(self):
        return PagedBPlusTree(BufferPool(DiskManager(), capacity=256),
                              node_capacity=8)

    def test_insert_and_point_search(self, tree):
        for i in range(300):
            tree.insert(float(i), i)
        assert tree.search(123.0) == [123]
        assert tree.search(1e9) == []
        assert tree.num_entries == 300
        assert tree.height >= 2
        assert tree.num_nodes > 1

    def test_range_search_matches_reference(self, tree):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 500, size=400)
        for i, key in enumerate(keys):
            tree.insert(float(key), i)
        expected = sorted(i for i, key in enumerate(keys) if 100 <= key <= 200)
        assert sorted(tree.range_search(KeyRange(100.0, 200.0))) == expected

    def test_delete(self, tree):
        tree.insert(1.0, 10)
        tree.insert(1.0, 11)
        tree.delete_many([1.0], [10])
        assert tree.search(1.0) == [11]
        with pytest.raises(KeyNotFoundError):
            tree.delete_many([1.0], [99])
        with pytest.raises(KeyNotFoundError):
            tree.delete_many([5.0], [1])

    def test_delete_many_is_checked_whole(self, tree):
        tree.insert_many([1.0, 1.0, 2.0], [10, 11, 20])
        with pytest.raises(KeyNotFoundError):
            tree.delete_many([1.0, 2.0, 2.0], [10, 20, 20])
        assert sorted(tree.items()) == [(1.0, 10), (1.0, 11), (2.0, 20)]
        tree.delete_many([2.0, 1.0], [20, 10])
        assert list(tree.items()) == [(1.0, 11)]

    def test_duplicate_keys(self, tree):
        for i in range(20):
            tree.insert(7.0, i)
        assert sorted(tree.search(7.0)) == list(range(20))

    def test_items_sorted(self, tree):
        rng = np.random.default_rng(2)
        keys = rng.uniform(0, 100, size=200)
        for i, key in enumerate(keys):
            tree.insert(float(key), i)
        listed = [key for key, _ in tree.items()]
        assert listed == sorted(listed)
        assert len(listed) == 200

    def test_page_traffic_is_charged(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=4)
        tree = PagedBPlusTree(pool, node_capacity=8)
        for i in range(500):
            tree.insert(float(i), i)
        tree.range_search(KeyRange(0.0, 499.0))
        # With only 4 frames, a tree of many nodes must have gone to disk.
        assert disk.stats.page_reads > 0
        assert tree.disk_bytes() == tree.num_nodes * disk.page_size

    def test_survives_eviction_pressure(self):
        pool = BufferPool(DiskManager(), capacity=3)
        tree = PagedBPlusTree(pool, node_capacity=4)
        for i in range(200):
            tree.insert(float(i), i)
        assert sorted(tree.range_search(KeyRange(0.0, 199.0))) == list(range(200))
