"""Paged read-path equivalence tests (ROADMAP: paged-index array path).

``PagedBPlusTree.range_search_array`` is a leaf-run gather.  In the style of
the write-path equivalence suite, the property here is exact agreement: for
any data and any closed range, the paged gather, the in-memory
``OrderedIndex`` and a brute-force filter must return the
same multiset of tuple identifiers — and a probe must cost exactly one
buffer-pool request per node of the descent plus one per visited leaf, which
is what the simulated disk breakdown (Figure 24) counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.base import KeyRange
from repro.index.ordered import OrderedIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

keys_strategy = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=0, max_size=150,
)

bounds_strategy = st.tuples(
    st.floats(min_value=-110.0, max_value=110.0, allow_nan=False),
    st.floats(min_value=-110.0, max_value=110.0, allow_nan=False),
)


def make_paged_tree(node_capacity: int = 8,
                    pool_capacity: int = 128) -> PagedBPlusTree:
    return PagedBPlusTree(BufferPool(DiskManager(), capacity=pool_capacity),
                          node_capacity=node_capacity)


class TestPagedRangeSearchArray:
    @SETTINGS
    @given(keys=keys_strategy, bounds=bounds_strategy)
    def test_gather_matches_brute_force_and_in_memory(self, keys, bounds):
        paged = make_paged_tree()
        in_memory = OrderedIndex()
        for tid, key in enumerate(keys):
            paged.insert(key, tid)
            in_memory.insert_many([key], [tid])
        key_range = KeyRange(*bounds)

        expected = sorted(tid for tid, key in enumerate(keys)
                          if key_range.contains(key))
        gathered = sorted(paged.range_search_array(key_range).tolist())
        assert gathered == expected
        assert gathered == sorted(in_memory.range_search_array(key_range).tolist())

    @SETTINGS
    @given(keys=keys_strategy, bounds=bounds_strategy)
    def test_gather_after_batched_insert(self, keys, bounds):
        """Same answer on a tree built by ``insert_many`` (multi-split pages)."""
        paged = make_paged_tree()
        paged.insert_many(np.asarray(keys, dtype=np.float64),
                          np.arange(len(keys)))
        key_range = KeyRange(*bounds)
        gathered = paged.range_search_array(key_range)
        expected = sorted(tid for tid, key in enumerate(keys)
                          if key_range.contains(key))
        assert sorted(gathered.tolist()) == expected
        assert gathered.dtype == np.int64
        assert paged.range_search(key_range) == gathered.tolist()

    @SETTINGS
    @given(keys=keys_strategy)
    def test_search_many_matches_brute_force(self, keys):
        paged = make_paged_tree()
        for tid, key in enumerate(keys):
            paged.insert(key, tid)
        probes = sorted(set(keys[:10])) + [1e6]
        found = paged.search_many(probes)
        expected = [tid for probe in probes
                    for tid, key in enumerate(keys) if key == probe]
        assert found.tolist() == expected
        for probe in probes[:3]:
            assert paged.search(probe) == [
                tid for tid, key in enumerate(keys) if key == probe]

    def test_duplicate_keys_return_every_tid(self):
        paged = make_paged_tree()
        for tid in range(40):
            paged.insert(5.0, tid)
        found = paged.range_search_array(KeyRange(5.0, 5.0))
        assert sorted(found.tolist()) == list(range(40))

    def test_empty_result_is_int64(self):
        paged = make_paged_tree()
        paged.insert(1.0, 0)
        found = paged.range_search_array(KeyRange(50.0, 60.0))
        assert found.size == 0
        assert found.dtype == np.int64

    def test_range_search_many_array_unions_ranges(self):
        paged = make_paged_tree()
        keys = np.linspace(0.0, 10.0, 200)
        paged.insert_many(keys, np.arange(200))
        ranges = [KeyRange(0.0, 1.0), KeyRange(5.0, 6.0)]
        found = paged.range_search_many_array(ranges)
        expected = sorted(
            tid for tid, key in enumerate(keys.tolist())
            if any(r.contains(key) for r in ranges)
        )
        assert sorted(found.tolist()) == expected

    def test_page_accounting_is_descent_plus_visited_leaves(self):
        """One request per level of the descent, one per leaf of the run."""
        rng = np.random.default_rng(5)
        keys = rng.uniform(0.0, 1.0, 3_000)
        tree = make_paged_tree(node_capacity=16, pool_capacity=16)
        tree.insert_many(keys, np.arange(3_000))

        leaves = 0
        page = tree._leftmost_leaf()
        while page is not None:
            leaves += 1
            page = tree._read_node(page)[3]

        def requests(probe) -> int:
            tree.pool.stats.reset()
            probe()
            return tree.pool.stats.hits + tree.pool.stats.misses

        everything = KeyRange(-1.0, 2.0)
        assert requests(
            lambda: tree.range_search_array(everything)) == tree.height + leaves
        assert requests(
            lambda: tree.search_many([float(keys[0])])) == tree.height + 1
