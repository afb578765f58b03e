"""Unit tests for TRS-Tree construction, lookup and maintenance."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import TRSTreeConfig
from repro.core.regression import piecewise_segment_indices
from repro.core.trs_tree import (
    TRSTree,
    equal_width_subranges,
    partition_bounds,
    route_indices,
)
from repro.errors import ConfigurationError, StorageError
from repro.index.base import KeyRange
from repro.segments import bound_positions, group_order
from repro.storage.memory import trs_internal_bytes, trs_leaf_bytes


def linear_data(count=2000, noise_positions=(), seed=0):
    """Target/host/tid arrays with host = 2*target + 5, plus forced outliers."""
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.0, 1000.0, size=count)
    hosts = 2.0 * targets + 5.0
    for position in noise_positions:
        hosts[position] += 5000.0
    tids = np.arange(count)
    return targets, hosts, tids


def brute_force(targets, predicate: KeyRange):
    return {int(i) for i in np.flatnonzero(
        (targets >= predicate.low) & (targets <= predicate.high))}


def hermit_style_answer(tree: TRSTree, hosts, targets, predicate: KeyRange):
    """Resolve a TRS-Tree lookup the way Hermit does, without the host index.

    Candidates are the union of tuples whose host value falls in a returned
    host range and the outlier tids; validation filters on the target value.
    """
    result = tree.lookup(predicate)
    candidates = set(result.outlier_tids)
    for host_range in result.host_ranges:
        candidates.update(
            int(i) for i in np.flatnonzero(
                (hosts >= host_range.low) & (hosts <= host_range.high))
        )
    return {tid for tid in candidates
            if predicate.contains(float(targets[int(tid)]))}


def row_of(tree: TRSTree, target: float) -> int:
    """The leaf a write of ``target`` is routed to."""
    return bisect_right(tree._table.bounds, target)


def built_range(tree: TRSTree, row: int) -> KeyRange:
    """Leaf ``row``'s range as built (not edge-open)."""
    lows = [tree._table.domain.low] + tree._table.bounds
    highs = tree._table.bounds + [tree._table.domain.high]
    return KeyRange(lows[row], highs[row])


class TestConfig:
    def test_defaults_match_paper(self):
        config = TRSTreeConfig()
        assert config.node_fanout == 8
        assert config.max_height == 10
        assert config.outlier_ratio == 0.1
        assert config.error_bound == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"node_fanout": 1},
        {"max_height": 0},
        {"outlier_ratio": 1.5},
        {"error_bound": -1.0},
        {"sample_fraction": 0.0},
        {"sample_fraction": 2.0},
        {"min_split_size": 1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TRSTreeConfig(**kwargs)


class TestConstruction:
    def test_perfect_linear_yields_single_leaf(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        assert tree.num_leaves == 1
        assert tree.height == 1
        assert tree.num_outliers == 0

    def test_sparse_noise_becomes_outliers_without_splitting(self):
        targets, hosts, tids = linear_data(noise_positions=range(0, 40))
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        assert tree.num_leaves == 1
        assert tree.num_outliers == 40

    def test_nonlinear_correlation_splits(self):
        rng = np.random.default_rng(1)
        targets = rng.uniform(0.0, 1000.0, size=5000)
        hosts = np.sqrt(targets) * 100.0
        tree = TRSTree()
        tree.build(targets, hosts, np.arange(5000))
        assert tree.num_leaves > 1
        assert tree.height > 1

    def test_max_height_bounds_depth(self):
        rng = np.random.default_rng(2)
        targets = rng.uniform(0.0, 1000.0, size=3000)
        hosts = np.sin(targets / 20.0) * 1000.0
        config = TRSTreeConfig(max_height=3, node_fanout=4)
        tree = TRSTree(config)
        tree.build(targets, hosts, np.arange(3000))
        assert tree.height <= 3

    def test_empty_build(self):
        tree = TRSTree()
        tree.build([], [], [])
        assert tree.num_leaves == 1
        # An empty leaf has nothing behind its band: no host probe at all.
        assert tree.lookup(KeyRange(0, 10)).host_ranges == []

    def test_mismatched_lengths_rejected(self):
        tree = TRSTree()
        with pytest.raises(StorageError):
            tree.build([1.0, 2.0], [1.0], [0, 1])

    def test_sampling_optimisation_still_correct(self):
        rng = np.random.default_rng(4)
        targets = rng.uniform(0.0, 1000.0, size=5000)
        hosts = np.sqrt(targets) * 100.0
        config = TRSTreeConfig(sample_fraction=0.05)
        tree = TRSTree(config)
        tree.build(targets, hosts, np.arange(5000))
        probe = KeyRange(100.0, 150.0)
        assert hermit_style_answer(tree, hosts, targets, probe) == \
            brute_force(targets, probe)

    @pytest.mark.parametrize("unmodelled", [np.nan, np.inf])
    def test_non_finite_hosts_are_outliers_not_splits(self, unmodelled):
        # One NaN residual made every quantile NaN, so no band passed and
        # a one-leaf table split to hundreds of leaves.  Pairs whose host
        # no band can cover are filed as outliers of their leaf and leave
        # the fit, and both split criteria, to the finite pairs.
        rng = np.random.default_rng(35)
        targets = rng.uniform(0.0, 1000.0, size=3000)
        hosts = 2.0 * targets + 5.0 + rng.normal(0.0, 0.5, size=3000)
        tids = np.arange(3000)
        missing = rng.random(3000) < 0.01
        finite = TRSTree()
        finite.build(targets[~missing], hosts[~missing], tids[~missing])
        hosts[missing] = unmodelled
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        assert (tree.num_leaves, tree.height) == (finite.num_leaves,
                                                  finite.height) == (1, 1)
        assert tree._table.models == finite._table.models
        assert tree.num_outliers == finite.num_outliers + int(missing.sum())
        tree.check_invariants(targets, hosts, tids)
        probe = KeyRange(250.0, 400.0)
        assert hermit_style_answer(tree, hosts, targets, probe) == \
            brute_force(targets, probe)

    def test_only_nan_hosts_make_one_leaf_that_files_every_pair(self):
        targets, _, tids = linear_data(count=500)
        hosts = np.full(targets.size, np.nan)
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        tree.check_invariants(targets, hosts, tids)
        assert (tree.num_leaves, tree.num_outliers) == (1, 500)
        assert tree.lookup(KeyRange(0.0, 1000.0)).host_ranges == []


class TestLookup:
    def test_range_lookup_covers_all_matches(self):
        targets, hosts, tids = linear_data(noise_positions=range(0, 30))
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        probe = KeyRange(250.0, 400.0)
        assert hermit_style_answer(tree, hosts, targets, probe) == \
            brute_force(targets, probe)

    def test_point_lookup(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        value = float(targets[10])
        answer = hermit_style_answer(tree, hosts, targets, KeyRange(value, value))
        assert 10 in answer

    def test_lookup_outside_domain(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        result = tree.lookup(KeyRange(5000.0, 6000.0))
        # The edge leaf is treated as open-ended (it would hold any
        # out-of-domain inserts), but no stored tuple matches.
        assert result.outlier_tids.size == 0
        assert hermit_style_answer(tree, hosts, targets,
                                   KeyRange(5000.0, 6000.0)) == set()

    def test_host_ranges_are_disjoint(self):
        rng = np.random.default_rng(5)
        targets = rng.uniform(0.0, 1000.0, size=5000)
        hosts = np.sqrt(targets) * 100.0
        tree = TRSTree()
        tree.build(targets, hosts, np.arange(5000))
        result = tree.lookup(KeyRange(0.0, 1000.0))
        for first, second in zip(result.host_ranges, result.host_ranges[1:]):
            assert first.high < second.low

    def test_empty_tree_lookup(self):
        tree = TRSTree()
        result = tree.lookup(KeyRange(0, 1))
        assert result.host_ranges == []
        assert result.outlier_tids.size == 0


class TestEmptyLeafProbes:
    """Leaves with nothing behind their band must not emit host probes."""

    def clustered_data(self, count=3000, seed=11):
        """Two tight clusters with a wide empty gap between them."""
        rng = np.random.default_rng(seed)
        low_cluster = rng.uniform(0.0, 100.0, size=count // 2)
        high_cluster = rng.uniform(900.0, 1000.0, size=count - count // 2)
        targets = np.concatenate([low_cluster, high_cluster])
        # Non-linear within each cluster so the tree actually splits and
        # builds leaves over the empty middle of the domain.
        hosts = np.sqrt(targets) * 100.0
        return targets, hosts, np.arange(len(targets))

    def test_empty_subrange_leaves_emit_no_host_ranges(self):
        targets, hosts, tids = self.clustered_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids, value_range=KeyRange(0.0, 1000.0))
        assert (tree._table.num_covered == 0).any(), \
            "expected leaves over the empty sub-ranges"
        # A probe entirely inside the empty gap returns nothing at all —
        # previously every overlapped empty leaf contributed a spurious
        # [alpha - eps, alpha + eps] host probe.
        result = tree.lookup(KeyRange(400.0, 500.0))
        assert result.host_ranges == []
        assert result.outlier_tids.size == 0
        # Probes over the populated clusters still answer exactly.
        probe = KeyRange(50.0, 950.0)
        assert hermit_style_answer(tree, hosts, targets, probe) == \
            brute_force(targets, probe)

    def test_covered_insert_into_empty_leaf_restores_probe(self):
        """An insert the band covers makes the leaf's host range live again."""
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        before = int(tree._table.num_model_covered[0])
        tree.insert_many([500.0], [2.0 * 500.0 + 5.0], [424242])
        assert tree._table.num_model_covered[0] == before + 1
        assert tree.lookup(KeyRange(499.0, 501.0)).host_ranges


class TestRoutingParity:
    """Build, row-at-a-time and batched writes and reads must agree on every leaf."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=300).flatmap(
        lambda groups: st.tuples(st.just(groups), st.lists(
            st.integers(min_value=0, max_value=groups - 1), max_size=200))))
    def test_grouping_by_child_equals_one_mask_per_child(self, case):
        """A split builds each child from what ``values[ids == child]``
        would hold, in the same order, so its sums round the same."""
        groups, ids = case
        ids = np.asarray(ids, dtype=np.int64)
        values = np.arange(ids.size) * 1.5
        order, offsets = group_order(ids, groups)
        assert offsets.tolist()[-1] == ids.size
        for group in range(groups):
            assert np.array_equal(
                values[order][offsets[group]:offsets[group + 1]],
                values[ids == group])

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.sampled_from([0.0, 1e-300, -1e-300]),
    )
    def test_build_partition_matches_bisect_over_table_bounds(
            self, low, width, fanout, boundary, jitter):
        """Adversarial values exactly on (and a hair off) child boundaries:
        the build's ``route_indices`` files them where a ``bisect_right``
        over the leaf table's bounds — the partition bounds themselves —
        routes writes and reads."""
        key_range = KeyRange(low, low + width)
        assume(key_range.width > 0)  # a zero-width node never splits
        # Both ways a boundary can be computed: cumulative steps and the
        # direct fraction — under float rounding they can differ, which is
        # precisely where mask-based and arithmetic routings split.
        step = key_range.width / fanout
        candidates = [
            low + min(boundary, fanout) * step,
            low + key_range.width * min(boundary, fanout) / fanout,
        ]
        values = np.array([min(max(v + jitter, low), low + width)
                           for v in candidates])
        bounds = partition_bounds(key_range, fanout)[1:-1]
        assert route_indices(values, key_range, fanout).tolist() == [
            bisect_right(bounds, float(value)) for value in values]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=15),
    )
    def test_routed_values_stay_inside_their_child_range(self, low, width,
                                                         fanout, boundary):
        """Containment: an in-range value must land in a child whose closed
        key range contains it, or the lookup's overlap descent loses it.

        Regression for the arithmetic routing rule, which could file a value
        one ulp below a computed bound into the child *above* it (found by
        review with low=-966.9447289429418, width≈813.27, fanout=6).
        """
        key_range = KeyRange(low, low + width)
        subranges = equal_width_subranges(key_range, fanout)
        bound = subranges[min(boundary, fanout - 1)].low
        probes = [bound, float(np.nextafter(bound, -np.inf)),
                  float(np.nextafter(bound, np.inf))]
        probes = [p for p in probes if key_range.low <= p <= key_range.high]
        for value in probes:
            child = int(route_indices(np.array([value]), key_range, fanout)[0])
            assert subranges[child].contains(value)

    def test_review_repro_boundary_tuple_not_lost(self):
        """End-to-end repro from review: a tuple 1 ulp below a child bound
        must stay reachable by a point lookup."""
        key_range = KeyRange(-966.9447289429418, -153.67448955593954)
        subranges = equal_width_subranges(key_range, 6)
        value = float(np.nextafter(subranges[5].low, -np.inf))
        rng = np.random.default_rng(30)
        targets = rng.uniform(key_range.low, key_range.high, size=3000)
        hosts = np.sin(targets / 20.0) * 1000.0  # forces splits
        tree = TRSTree(TRSTreeConfig(node_fanout=6, max_height=3))
        tree.build(targets, hosts, np.arange(3000),
                   value_range=key_range)
        tree.insert_many([value], [1e6], [424242])  # gross outlier host
        result = tree.lookup(KeyRange(value, value))
        assert 424242 in result.outlier_tids

    def test_tree_files_boundary_tuples_identically(self):
        """Rows one at a time vs one batch: same leaf for values on split
        boundaries."""
        rng = np.random.default_rng(13)
        targets = rng.uniform(0.0, 1000.0, size=4000)
        hosts = np.sin(targets / 20.0) * 1000.0  # forces splits
        tids = np.arange(4000)

        def build():
            tree = TRSTree(TRSTreeConfig(node_fanout=4, max_height=4))
            tree.build(targets, hosts, tids)
            return tree

        one_by_one, batched_tree = build(), build()
        # Values sitting exactly on every internal boundary of the built
        # tree, inserted as guaranteed outliers (host far off any band).
        new_targets = np.array(one_by_one._table.bounds)
        new_hosts = np.full(len(new_targets), 1e9)
        new_tids = np.arange(10_000, 10_000 + len(new_targets))
        for value, host, tid in zip(new_targets, new_hosts, new_tids):
            one_by_one.insert_many([float(value)], [float(host)], [int(tid)])
        batched_tree.insert_many(new_targets, new_hosts, new_tids)

        for counter in ("num_outliers", "num_inserted", "num_model_covered"):
            assert np.array_equal(getattr(one_by_one._table, counter),
                                  getattr(batched_tree._table, counter))
        # A value on a bound belongs to the leaf starting there.
        assert one_by_one._table.num_outliers[1:].min() >= 1

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_batches_of_one_file_like_one_batch(self, fraction):
        """A one-row ``insert_many`` (every ``Database.insert``) leaves,
        row by row, what one batch leaves: covered rows, outliers, a NULL
        target, fractional (logical) tids."""
        rng = np.random.default_rng(17)
        targets = rng.uniform(0.0, 1000.0, size=2000)

        def build():
            tree = TRSTree(TRSTreeConfig(node_fanout=4, max_height=4))
            tree.build(targets, np.sin(targets / 20.0) * 1000.0,
                       np.arange(2000))
            return tree

        new_targets = np.append(rng.uniform(-10.0, 1010.0, size=300), np.nan)
        new_hosts = (np.sin(new_targets / 20.0) * 1000.0
                     + rng.choice([0.0, 1e6], size=301))
        new_tids = np.arange(5000, 5301) + fraction
        if not fraction:
            new_tids = new_tids.astype(np.int64)
        one_by_one, batched = build(), build()
        for i in range(301):
            one_by_one.insert_many(new_targets[i:i + 1], new_hosts[i:i + 1],
                                   new_tids[i:i + 1])
        batched.insert_many(new_targets, new_hosts, new_tids)
        for counter in ("num_outliers", "num_inserted", "num_model_covered"):
            assert np.array_equal(getattr(one_by_one._table, counter),
                                  getattr(batched._table, counter))
        assert 0 < batched.num_outliers < 301
        assert sorted(one_by_one._outliers.items()) == sorted(
            batched._outliers.items())
        everything = KeyRange(-np.inf, np.inf)
        assert (one_by_one.lookup(everything).outlier_tids.dtype
                == batched.lookup(everything).outlier_tids.dtype)


# Values on which counting bounds and a binary search could part ways.
EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.0,
               -1.0, 1e308, -1e308]
edge_floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


def probes_around(bounds):
    """Every edge value, every bound, and each bound's two neighbours."""
    finite = [bound for bound in bounds if not np.isnan(bound)]
    return np.array(EDGE_VALUES + list(bounds)
                    + [float(np.nextafter(bound, -np.inf)) for bound in finite]
                    + [float(np.nextafter(bound, np.inf)) for bound in finite])


def searched(values, bounds):
    """The binary search over the interior bounds that routing replaces."""
    return np.searchsorted(np.asarray(bounds[1:-1], dtype=np.float64),
                           values, side="right").tolist()


class TestRoutingByComparison:
    """Routing counts the interior bounds a value is not below, and files
    every value where ``np.searchsorted(side="right")`` would: on a bound
    it is past it, ``-0.0`` and ``0.0`` are one value, NaN is past every
    bound."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_floats, max_size=10),
           st.lists(edge_floats, max_size=40))
    def test_bound_positions_equal_searchsorted(self, bounds, values):
        bounds = np.sort(np.asarray(bounds, dtype=np.float64))  # NaN last
        values = np.asarray(values, dtype=np.float64)
        assert bound_positions(values, bounds.tolist()).tolist() == \
            np.searchsorted(bounds, values, side="right").tolist()

    @pytest.mark.parametrize("low, high, fanout", [
        (0.0, 1000.0, 8),
        (-1.0, 1.0, 4),          # a bound at 0.0, with both zeros on it
        (-1e308, 1e308, 7),      # the width overflows: infinite bounds
        (0.0, np.inf, 4),        # an open range: infinite bounds
        (-np.inf, 5.0, 4),       # an open range: NaN bounds
        (3.0, 7.0, 1),           # one child: no interior bound
        (5.0, 5.0, 4),           # zero width: every bound one float
    ])
    def test_route_indices_equal_searchsorted(self, low, high, fanout):
        key_range = KeyRange(low, high)
        bounds = partition_bounds(key_range, fanout)
        values = probes_around(bounds)
        assert route_indices(values, key_range, fanout).tolist() == \
            searched(values, bounds)
        assert route_indices(np.empty(0), key_range, fanout).size == 0

    @pytest.mark.parametrize("bounds", [
        (0.0, 2.5, 5.0, 7.5, 10.0),
        (-1.0, 0.0, 1.0),
        (-1e308, 0.0, 1e308),
        (4.0, 9.0),
    ])
    def test_piecewise_segments_equal_searchsorted(self, bounds):
        values = probes_around(bounds)
        assert piecewise_segment_indices(values, bounds).tolist() == \
            searched(values, bounds)
        assert piecewise_segment_indices(np.empty(0), bounds).size == 0

    def test_a_zero_width_leaf_fits_one_segment(self):
        """A zero-width leaf's piecewise candidate files every value in its
        first segment, where the search would put a value on the bound in
        the last (a zero-width node never splits, so routing has no such
        rule)."""
        values = probes_around([5.0])
        assert not piecewise_segment_indices(values, (5.0,) * 5).any()


class TestMaintenance:
    def test_insert_covered_tuple_leaves_no_trace(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        tree.insert_many([500.0], [2.0 * 500.0 + 5.0], [99999])
        assert tree.num_outliers == 0

    def test_insert_outlier_is_recoverable(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        tree.insert_many([500.0], [99999.0], [77777])
        result = tree.lookup(KeyRange(499.0, 501.0))
        assert 77777 in result.outlier_tids

    def test_delete_removes_outlier(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        tree.insert_many([500.0], [99999.0], [77777])
        tree.delete_many([500.0], [99999.0], [77777])
        result = tree.lookup(KeyRange(499.0, 501.0))
        assert 77777 not in result.outlier_tids

    def test_update_moves_outlier(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        tree.insert_many([500.0], [99999.0], [77777])
        tree.update_many([500.0], [99999.0], [700.0], [88888.0], [77777], [77777])
        assert 77777 not in tree.lookup(KeyRange(499.0, 501.0)).outlier_tids
        assert 77777 in tree.lookup(KeyRange(699.0, 701.0)).outlier_tids

    def test_nan_target_is_not_stored_but_a_nan_host_is_an_outlier(self):
        targets, hosts, tids = linear_data()
        tree = TRSTree()
        tree.build(np.append(targets, np.nan), np.append(hosts, 1.0),
                   np.append(tids, 5000))
        assert tree._table.domain == KeyRange(targets.min(), targets.max())
        tree.insert_many([np.nan], [1.0], [5001])
        tree.insert_many([np.nan, 250.0], [1.0, np.nan], [5002, 5003])
        tree.update_many([np.nan], [1.0], [np.nan], [2.0], [5001], [5001])
        tree.delete_many([np.nan], [1.0], [5002])
        assert tree.num_outliers == 1  # the NaN host, under its own target
        assert tree.lookup(KeyRange(250.0, 250.0)).outlier_tids.tolist() == [5003]
        assert tree._table.num_inserted.tolist() == [1]
        assert tree._table.num_deleted.tolist() == [0]

    def test_maintenance_on_empty_tree_is_noop(self):
        tree = TRSTree()
        tree.insert_many([1.0], [1.0], [1])
        tree.delete_many([1.0], [1.0], [1])

    def test_heavy_inserts_flag_split_candidates(self):
        targets, hosts, tids = linear_data(count=3000)
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        rng = np.random.default_rng(6)
        for i in range(600):
            tree.insert_many([float(rng.uniform(0, 1000))],
                             [float(rng.uniform(0, 1e6))], [100000 + i])
        assert tree.pending_reorganizations > 0


class TestHonestCounters:
    """num_deleted must track real removals, not no-op delete/update churn."""

    def build_tree(self, count=2000):
        targets, hosts, tids = linear_data(count=count)
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        return tree, targets, hosts

    def test_noop_delete_does_not_count(self):
        tree, _, _ = self.build_tree()
        # Neither an outlier entry nor inside the band: the pair was never
        # in the tree, so the delete must leave the counters alone.
        for _ in range(50):
            tree.delete_many([500.0], [1e9], [999_999])
        assert tree._table.num_deleted[0] == 0

    def test_covered_delete_counts_once(self):
        tree, targets, hosts = self.build_tree()
        tree.delete_many([float(targets[0])], [float(hosts[0])], [0])
        assert tree._table.num_deleted[0] == 1

    def test_outlier_delete_counts_via_removal(self):
        tree, _, _ = self.build_tree()
        tree.insert_many([500.0], [1e9], [777])
        assert tree._table.num_outliers[0] == tree.num_outliers == 1
        tree.delete_many([500.0], [1e9], [777])
        assert tree._table.num_outliers[0] == tree.num_outliers == 0
        assert tree._table.num_deleted[0] == 1

    def test_update_within_leaf_does_not_inflate_counters(self):
        """An in-place move is not a delete plus an insert."""
        tree, targets, hosts = self.build_tree()
        value = float(targets[10])
        host = float(hosts[10])
        # 300 covered-pair updates within the single leaf: population is
        # unchanged throughout, so no churn may accumulate.
        for step in range(300):
            new_value = 100.0 + (step % 7)
            new_host = 2.0 * new_value + 5.0
            tree.update_many([value], [host], [new_value], [new_host], [10],
                             [10])
            value, host = new_value, new_host
        assert tree._table.num_deleted[0] == 0
        assert tree._table.num_inserted[0] == 0
        assert tree.pending_reorganizations == 0

    def test_over_deleting_one_covered_pair_cannot_silence_the_probe(self):
        """Regression (review repro): num_model_covered is a monotone upper
        bound — repeated deletes of one covered pair must not drive it to
        zero and drop the host range while covered tuples still exist."""
        tree, targets, hosts = self.build_tree(count=500)
        for _ in range(505):
            tree.delete_many([float(targets[0])], [float(hosts[0])], [0])
        assert tree._table.num_model_covered[0] > 0
        probe = KeyRange(0.0, 1000.0)
        result = tree.lookup(probe)
        assert result.host_ranges  # the 499 remaining tuples stay reachable

    def test_update_across_leaves_counts_both_sides(self):
        rng = np.random.default_rng(21)
        targets = rng.uniform(0.0, 1000.0, size=4000)
        hosts = np.sin(targets / 20.0) * 1000.0
        tree = TRSTree(TRSTreeConfig(node_fanout=4, max_height=3))
        tree.build(targets, hosts, np.arange(4000))
        assert tree.num_leaves > 1
        old_row = row_of(tree, float(targets[0]))
        # Move the tuple to a target owned by a different leaf.
        new_target = float(targets[0]) + 500.0 if targets[0] < 400.0 \
            else float(targets[0]) - 500.0
        new_row = row_of(tree, new_target)
        assert new_row != old_row
        table = tree._table
        deleted_before = int(table.num_deleted[old_row])
        inserted_before = int(table.num_inserted[new_row])
        tree.update_many([float(targets[0])], [float(hosts[0])], [new_target],
                         [12345.0], [0], [0])
        assert table.num_deleted[old_row] == deleted_before + 1
        assert table.num_inserted[new_row] == inserted_before + 1

    def test_noop_updates_do_not_flag_spurious_merges(self):
        """Repeated no-op updates used to inflate the deleted ratio past the
        merge threshold even though no tuple ever left the leaf."""
        rng = np.random.default_rng(22)
        targets = rng.uniform(0.0, 1000.0, size=4000)
        hosts = np.sin(targets / 20.0) * 1000.0
        tree = TRSTree(TRSTreeConfig(node_fanout=4, max_height=3))
        tree.build(targets, hosts, np.arange(4000))
        assert tree.num_leaves > 1  # leaves have parents, merges possible
        table = tree._table
        row = int(np.flatnonzero(table.num_model_covered > 0)[0])
        leaf_range = built_range(tree, row)
        value = (leaf_range.low + leaf_range.high) / 2.0
        covered_host = table.models[row].predict(value)
        # Old pair never present (no outlier entry, far outside any band);
        # new pair covered.  Run far past the merge threshold
        # (outlier_ratio * num_covered): nothing may be counted as deleted
        # and no merge may be flagged.
        for _ in range(int(table.num_covered[row]) + 10):
            tree.update_many([value], [1e9], [value], [covered_host],
                             [888_888], [888_888])
        assert table.num_deleted[row] == 0
        assert tree.pending_reorganizations == 0

    @pytest.mark.parametrize("unmodelled", [np.nan, np.inf])
    def test_non_finite_hosts_do_not_flag_a_split(self, unmodelled):
        """The build leaves non-finite-host pairs out of its outlier ratio;
        the split flag counted them, so every write to a leaf holding many
        flagged it again, and each rebuild reproduced the same leaf."""
        targets, hosts, tids = linear_data(count=3000, seed=36)
        missing = np.random.default_rng(36).random(3000) < 0.3
        hosts[missing] = unmodelled
        tree = TRSTree()
        tree.build(targets, hosts, tids)
        assert tree.num_leaves == 1
        tree.insert_many([500.0], [1005.0], [3000])
        assert tree.pending_reorganizations == 0
        tree.insert_many([501.0], [unmodelled], [3001])
        tree.insert_many([502.0, 503.0], [unmodelled, 1011.0], [3002, 3003])
        tree.update_many([501.0], [unmodelled], [504.0], [1013.0], [3001], [3001])
        tree.update_many([float(targets[0])], [float(hosts[0])],
                         [float(targets[0])], [unmodelled], [0], [0])
        tree.delete_many([502.0], [unmodelled], [3002])
        assert tree.pending_reorganizations == 0
        assert tree._table.num_unmodelled.tolist() == [
            int(missing.sum()) + (not missing[0])]
        # Finite off-band pairs still count.
        for tid in range(4000, 4400):
            tree.insert_many([float(tid % 1000)], [-1e9], [tid])
        assert tree.pending_reorganizations == 1


class TestReorganization:
    def build_with_provider(self):
        targets, hosts, tids = linear_data(count=3000)
        store = {
            "targets": targets.copy(), "hosts": hosts.copy(), "tids": tids.copy(),
        }
        tree = TRSTree()
        tree.build(store["targets"], store["hosts"], store["tids"])

        def provider(key_range: KeyRange):
            mask = (store["targets"] >= key_range.low) & (
                store["targets"] <= key_range.high)
            return (store["targets"][mask], store["hosts"][mask],
                    store["tids"][mask])

        return tree, store, provider

    def test_reorganize_absorbs_new_outliers(self):
        tree, store, provider = self.build_with_provider()
        rng = np.random.default_rng(7)
        new_targets = rng.uniform(0.0, 1000.0, size=800)
        new_hosts = rng.uniform(0.0, 1e6, size=800)
        # Tids double as positions into the concatenated arrays below so the
        # brute-force oracle can validate them.
        new_tids = np.arange(3000, 3800)
        for m, n, tid in zip(new_targets, new_hosts, new_tids):
            tree.insert_many([float(m)], [float(n)], [int(tid)])
        store["targets"] = np.concatenate([store["targets"], new_targets])
        store["hosts"] = np.concatenate([store["hosts"], new_hosts])
        store["tids"] = np.concatenate([store["tids"], new_tids])

        assert tree.pending_reorganizations > 0
        processed = tree.reorganize(provider)
        assert processed > 0
        assert tree.pending_reorganizations == 0
        # After the rebuild the tree either split (more leaves) or re-fit; the
        # query answers must still be exact and every stored outlier must be a
        # live tuple.
        probe = KeyRange(100.0, 300.0)
        answer = hermit_style_answer(tree, store["hosts"], store["targets"], probe)
        assert answer == brute_force(store["targets"], probe)
        assert tree.num_leaves >= 1
        assert tree.num_outliers <= len(store["targets"])

    def test_reorganize_respects_max_candidates(self):
        tree, store, provider = self.build_with_provider()
        rng = np.random.default_rng(8)
        for i in range(800):
            tree.insert_many([float(rng.uniform(0, 1000))],
                             [float(rng.uniform(0, 1e6))], [50_000 + i])
        pending = tree.pending_reorganizations
        if pending > 1:
            processed = tree.reorganize(provider, max_candidates=1)
            assert processed == 1

    def test_reorganize_children_rebuilds_subtrees(self):
        rng = np.random.default_rng(9)
        targets = rng.uniform(0.0, 1000.0, size=4000)
        hosts = np.sqrt(targets) * 100.0
        tids = np.arange(4000)
        tree = TRSTree()
        tree.build(targets, hosts, tids)

        def provider(key_range: KeyRange):
            mask = (targets >= key_range.low) & (targets <= key_range.high)
            return targets[mask], hosts[mask], tids[mask]

        tree.reorganize_children(provider, [0, 1])
        probe = KeyRange(0.0, 400.0)
        assert hermit_style_answer(tree, hosts, targets, probe) == \
            brute_force(targets, probe)

    def test_rebuilding_one_leaf_keeps_every_other_leafs_outliers(self):
        # Eight linear leaves over [0, 9]; off-band rows on every leaf bound
        # (routed to the leaf above it) and just below it.
        targets = np.linspace(0.0, 9.0, 400)
        hosts = 100.0 * np.abs(targets - 3.375)
        tids = np.arange(400)
        tree = TRSTree(TRSTreeConfig(min_split_size=8))
        tree.build(targets, hosts, tids)
        bounds = list(tree._table.bounds)
        assert tree.num_leaves == 8 and tree.num_outliers == 0
        extra = np.asarray(bounds + [bound - 0.3 for bound in bounds])
        extra_tids = np.arange(1_000, 1_000 + extra.size)
        tree.insert_many(extra, np.full(extra.size, -1e9), extra_tids)
        targets = np.concatenate([targets, extra])
        hosts = np.concatenate([hosts, np.full(extra.size, -1e9)])
        tids = np.concatenate([tids, extra_tids])

        def provider(key_range: KeyRange):
            mask = (targets >= key_range.low) & (targets <= key_range.high)
            return targets[mask], hosts[mask], tids[mask]

        def outside(pairs):
            return [(key, tid) for key, tid in pairs
                    if not bounds[1] <= key < bounds[2]]

        before = list(tree._outliers.items())
        tree.reorganize_children(provider, [2])
        after = list(tree._outliers.items())
        assert outside(after) == outside(before)
        assert sorted(after) == sorted(before)
        tree.check_invariants(targets, hosts, tids)

    def test_memory_accounting_prices_leaves_and_internal_nodes(self):
        tree, _, _ = self.build_with_provider()
        assert tree.num_leaves == 1
        assert tree.memory_bytes() == trs_leaf_bytes(0)
        rng = np.random.default_rng(10)
        targets = rng.uniform(0.0, 1000.0, size=3000)
        fanout = 4
        split = TRSTree(TRSTreeConfig(node_fanout=fanout, max_height=4))
        split.build(targets, np.sin(targets / 20.0) * 1000.0, np.arange(3000))
        table = split._table
        internal = (split.num_leaves - 1) // (fanout - 1)
        assert (split.num_leaves - 1) % (fanout - 1) == 0 and internal >= 1
        assert split.memory_bytes() == (
            sum(trs_leaf_bytes(count) for count in table.num_outliers.tolist())
            + internal * trs_internal_bytes(fanout))
