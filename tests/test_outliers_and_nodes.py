"""Unit tests for outlier buffers and TRS-Tree node types."""

import pytest

from repro.core.node import (
    TRSInternalNode,
    TRSLeafNode,
    equal_width_subranges,
)
from repro.core.outliers import OutlierBuffer
from repro.core.regression import LinearModel
from repro.index.base import KeyRange


class TestOutlierBuffer:
    def test_add_and_buckets(self):
        # Range probes of outliers are TRSTree's (one tree-wide view, see
        # test_trs_lookup_many.TestFlatReadsMatchThePointerTree); the
        # buffer hands its buckets over in key order for that view.
        buffer = OutlierBuffer()
        buffer.add(7.0, 102)
        buffer.add(5.0, 100)
        buffer.add_many([5.0, 6.0], [101, 103])
        assert buffer.buckets() == ([5.0, 6.0, 7.0],
                                    [[100, 101], [103], [102]])
        assert len(buffer) == 4
        assert 5.0 in buffer

    def test_remove(self):
        buffer = OutlierBuffer()
        buffer.add(5.0, 100)
        assert buffer.remove(5.0, 100)
        assert not buffer.remove(5.0, 100)
        assert not buffer.remove(9.0, 1)
        assert len(buffer) == 0
        assert 5.0 not in buffer

    def test_clear_and_memory(self):
        buffer = OutlierBuffer()
        empty_bytes = buffer.memory_bytes()
        for i in range(100):
            buffer.add(float(i), i)
        assert buffer.memory_bytes() > empty_bytes
        buffer.clear()
        assert len(buffer) == 0

    def test_items(self):
        buffer = OutlierBuffer()
        buffer.add(1.0, "a")
        buffer.add(1.0, "b")
        assert sorted(buffer.items()) == [(1.0, "a"), (1.0, "b")]


class TestEqualWidthSubranges:
    def test_partition_covers_parent(self):
        subranges = equal_width_subranges(KeyRange(0.0, 100.0), 4)
        assert len(subranges) == 4
        assert subranges[0].low == 0.0
        assert subranges[-1].high == 100.0
        for left, right in zip(subranges, subranges[1:]):
            assert left.high == pytest.approx(right.low)

    def test_single_child(self):
        assert equal_width_subranges(KeyRange(0, 10), 1) == [KeyRange(0, 10)]


class TestLeafNode:
    def make_leaf(self) -> TRSLeafNode:
        model = LinearModel(beta=2.0, alpha=0.0, epsilon=1.0)
        return TRSLeafNode(KeyRange(0.0, 10.0), height=1, model=model)

    def test_covers_uses_model(self):
        leaf = self.make_leaf()
        assert leaf.covers(2.0, 4.5)
        assert not leaf.covers(2.0, 10.0)

    def test_host_range(self):
        leaf = self.make_leaf()
        host = leaf.model.host_range(KeyRange(1.0, 2.0))
        # The bounds carry a two-ulp outward pad so border-covered tuples
        # can never round out of the probe.
        assert host.low == pytest.approx(1.0)
        assert host.high == pytest.approx(5.0)
        assert host.low <= 1.0 <= 5.0 <= host.high

    def test_population_and_ratios(self):
        leaf = self.make_leaf()
        leaf.num_covered = 100
        leaf.num_inserted = 20
        leaf.num_deleted = 10
        assert leaf.population == 110
        leaf.outliers.add(1.0, 1)
        leaf.outliers.add(2.0, 2)
        assert leaf.outlier_ratio() == pytest.approx(2 / 110)
        assert leaf.deleted_ratio() == pytest.approx(0.1)

    def test_ratios_with_zero_population(self):
        leaf = self.make_leaf()
        assert leaf.outlier_ratio() == 0.0
        assert leaf.deleted_ratio() == 0.0

    def test_walk_yields_self(self):
        leaf = self.make_leaf()
        assert list(leaf.walk()) == [leaf]
        assert leaf.is_leaf


class TestInternalNode:
    def make_tree(self) -> TRSInternalNode:
        parent = TRSInternalNode(KeyRange(0.0, 100.0), height=1)
        model = LinearModel(1.0, 0.0, 0.0)
        for sub in equal_width_subranges(parent.key_range, 4):
            child = TRSLeafNode(sub, height=2, model=model, parent=parent)
            parent.children.append(child)
        return parent

    def test_child_for_routes_by_value(self):
        parent = self.make_tree()
        assert parent.child_for(10.0) is parent.children[0]
        assert parent.child_for(25.0) is parent.children[1]
        assert parent.child_for(99.9) is parent.children[3]

    def test_child_for_clamps_out_of_range(self):
        parent = self.make_tree()
        assert parent.child_for(-5.0) is parent.children[0]
        assert parent.child_for(500.0) is parent.children[3]

    def test_child_for_without_children_raises(self):
        empty = TRSInternalNode(KeyRange(0, 1), height=1)
        with pytest.raises(ValueError):
            empty.child_for(0.5)

    def test_replace_child(self):
        parent = self.make_tree()
        replacement = TRSLeafNode(parent.children[0].key_range, height=2,
                                  model=LinearModel(0, 0, 0))
        old = parent.children[0]
        parent.replace_child(old, replacement)
        assert parent.children[0] is replacement
        assert replacement.parent is parent
        with pytest.raises(ValueError):
            parent.replace_child(old, replacement)

    def test_walk_covers_subtree(self):
        parent = self.make_tree()
        assert len(list(parent.walk())) == 5
        assert not parent.is_leaf
