"""Unit tests for the outlier buffer, the partition helpers and a leaf band."""

import pytest

from repro.core.outliers import OutlierBuffer
from repro.core.regression import LinearModel
from repro.core.trs_tree import equal_width_subranges
from repro.index.base import KeyRange


class TestOutlierBuffer:
    def test_add_and_buckets(self):
        # Range probes of outliers are TRSTree's (one tree-wide view, see
        # test_trs_lookup_many.TestReadsMatchTheLeafScan); the buffer hands
        # its buckets over in key order for that view.
        buffer = OutlierBuffer()
        buffer.add(7.0, 102)
        buffer.add(5.0, 100)
        buffer.add_many([5.0, 6.0], [101, 103])
        assert buffer.buckets() == ([5.0, 6.0, 7.0],
                                    [[100, 101], [103], [102]])
        assert len(buffer) == 4

    def test_remove(self):
        buffer = OutlierBuffer()
        buffer.add(5.0, 100)
        assert buffer.remove(5.0, 100)
        assert not buffer.remove(5.0, 100)
        assert not buffer.remove(9.0, 1)
        assert len(buffer) == 0
        assert buffer.buckets() == ([], [])


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
        assert model.covers(2.0, 4.5)
        assert not model.covers(2.0, 10.0)
        host = model.host_range(KeyRange(1.0, 2.0))
        # The bounds carry a two-ulp outward pad so border-covered tuples
        # can never round out of the probe.
        assert host.low == pytest.approx(1.0)
        assert host.high == pytest.approx(5.0)
        assert host.low <= 1.0 <= 5.0 <= host.high
