"""Unit tests for the outlier index, the partition helpers and a leaf band."""

import numpy as np
import pytest

from repro.core.regression import LinearModel
from repro.core.trs_tree import TRSTree, equal_width_subranges
from repro.index.base import KeyRange


def linear_tree() -> TRSTree:
    """One linear leaf over [0, 99] (host = 2 * target), no outliers."""
    targets = np.arange(100, dtype=np.float64)
    tree = TRSTree()
    tree.build(targets, 2.0 * targets, np.arange(100))
    assert tree.num_outliers == 0
    return tree


class TestOutlierIndex:
    def test_off_band_pairs_are_filed_under_their_target(self):
        # Range probes of outliers are TRSTree's (one tree-wide index, see
        # test_trs_lookup_many.TestReadsMatchTheLeafScan); the index holds
        # them in key order, a key's tids in filing order.
        tree = linear_tree()
        tree.insert_many([7.0], [1e6], [102])
        tree.insert_many([5.0], [1e6], [100])
        tree.insert_many([5.0, 6.0], [1e6, 1e6], [101, 103])
        assert list(tree._outliers.items()) == [
            (5.0, 100), (5.0, 101), (6.0, 103), (7.0, 102)]
        assert tree.num_outliers == 4
        assert tree.lookup(KeyRange(5.0, 6.0)).outlier_tids.tolist() == [
            100, 101, 103]

    def test_delete_removes_an_outlier_if_present(self):
        tree = linear_tree()
        tree.insert_many([5.0], [1e6], [100])
        tree.delete_many([5.0], [1e6], [100])
        # The pair is gone: deleting it again, or a pair never filed, is a
        # no-op that touches no counter.
        tree.delete_many([5.0], [1e6], [100])
        tree.delete_many([9.0], [1e6], [1])
        assert tree.num_outliers == 0
        assert list(tree._outliers.items()) == []
        assert tree._table.num_outliers.tolist() == [0]
        assert tree._table.num_deleted.tolist() == [1]


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


class TestLeafBand:
    def test_covers_and_padded_host_range(self):
        model = LinearModel(beta=2.0, alpha=0.0, epsilon=1.0)
        assert model.covers_many(np.array([2.0, 2.0]),
                                 np.array([4.5, 10.0])).tolist() == [True,
                                                                     False]
        host = KeyRange(*model.host_range(1.0, 2.0))
        # The bounds carry a two-ulp outward pad so border-covered tuples
        # can never round out of the probe.
        assert host.low == pytest.approx(1.0)
        assert host.high == pytest.approx(5.0)
        assert host.low <= 1.0 <= 5.0 <= host.high
