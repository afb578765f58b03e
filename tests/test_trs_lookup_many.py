"""The reads of the TRS-Tree against a scan of every leaf.

``TRSTree.lookup`` (a scalar probe) and ``TRSTree.lookup_many`` (array
passes) both read the tree's leaf table and its tree-wide outlier view.
The oracle is ``reference.trs_lookup_scan`` — Algorithm 2 as a linear scan
of the rows, with no bisect, no model table and no coalescing — and both
reads must agree with it for every leaf-model variant the builder can
select (linear, piecewise, outlier-only demotion), every tree shape (single
leaf, deep splits, empty build), every predicate position (inside the built
domain, exactly on leaf bounds, straddling the domain's edges, fully
outside) and after any interleaving of writes and reorganizations.

``lookup`` must emit the oracle's host ranges bit for bit.  ``lookup_many``
differs in one sanctioned way: ranges whose gap holds no representable
float are coalesced (the candidate set cannot change), so the oracle's
ranges go through the same rule (``normalise``) before the exact
comparison.  Outlier tids are compared as multisets.  ``nodes_visited``
equals ``leaves_visited``: the tree has no internal node to visit.  After
every write, ``check_invariants`` over the live pairs checks the table's
shape and the paper's "never miss" contract.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import TRSTreeConfig
from repro.core.regression import (
    LinearModel,
    OutlierOnlyModel,
    PiecewiseLinearModel,
)
from repro.core.trs_tree import TRSTree, coalesce_sorted_ranges
from repro.index.base import KeyRange

from reference import trs_lookup_scan

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def normalise(host_ranges: list[KeyRange]) -> list[tuple[float, float]]:
    """Sort and ulp-coalesce scalar host ranges into the batch's canon."""
    if not host_ranges:
        return []
    ordered = sorted(host_ranges, key=lambda r: r.low)
    merged: list[list[float]] = [[ordered[0].low, ordered[0].high]]
    for key_range in ordered[1:]:
        previous = merged[-1]
        if key_range.low > np.nextafter(previous[1], np.inf):
            merged.append([key_range.low, key_range.high])
        else:
            previous[1] = max(previous[1], key_range.high)
    return [(low, high) for low, high in merged]


def assert_reads_match_oracle(tree: TRSTree,
                              predicates: list[KeyRange]) -> None:
    tree.check_invariants()
    batch = tree.lookup_many(predicates)
    assert batch.num_queries == len(predicates)
    assert batch.nodes_visited.tolist() == batch.leaves_visited.tolist()
    for position, predicate in enumerate(predicates):
        oracle = trs_lookup_scan(tree, predicate)
        scalar = tree.lookup(predicate)
        assert scalar.host_ranges == oracle.host_ranges, (position, predicate)
        batch_ranges = [(r.low, r.high)
                        for r in batch.host_ranges_for(position)]
        assert batch_ranges == normalise(oracle.host_ranges), (
            position, predicate)
        assert (sorted(batch.outliers_for(position).tolist())
                == sorted(scalar.outlier_tids.tolist())
                == sorted(oracle.outlier_tids)), (position, predicate)
        assert (int(batch.leaves_visited[position]) == scalar.leaves_visited
                == scalar.nodes_visited == oracle.leaves_visited)


def probe_batch(low: float, high: float) -> list[KeyRange]:
    """Predicates covering inside/edge/outside positions of [low, high]."""
    span = max(high - low, 1.0)
    grid = np.linspace(low - 0.25 * span, high + 0.25 * span, 17)
    predicates = [KeyRange(float(a), float(b))
                  for a in grid for b in grid[::4] if b >= a]
    # Point predicates exercise the zero-width descent.
    predicates += [KeyRange(float(v), float(v)) for v in grid[::3]]
    return predicates


def make_tree(targets, hosts, **config_kwargs) -> TRSTree:
    config = TRSTreeConfig(min_split_size=8, **config_kwargs)
    tree = TRSTree(config)
    tree.build(np.asarray(targets, dtype=np.float64),
               np.asarray(hosts, dtype=np.float64),
               np.arange(len(targets)))
    return tree


class TestLeafModelVariants:
    """One dataset per leaf-model family the builder can select."""

    def test_linear_single_leaf(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(0.0, 1000.0, 2000)
        tree = make_tree(targets, 2.0 * targets + 5.0)
        assert tree.num_leaves == 1
        assert_reads_match_oracle(tree, probe_batch(0.0, 1000.0))

    def test_linear_with_outliers(self):
        rng = np.random.default_rng(1)
        targets = rng.uniform(0.0, 1000.0, 2000)
        hosts = 2.0 * targets + 5.0
        hosts[:40] += 5000.0
        tree = make_tree(targets, hosts)
        assert tree.num_outliers >= 40
        assert_reads_match_oracle(tree, probe_batch(0.0, 1000.0))

    def test_exponential_split_tree(self):
        rng = np.random.default_rng(2)
        targets = rng.uniform(1.0, 1000.0, 4000)
        hosts = np.exp(targets / 250.0) * (1.0 + rng.normal(0, 0.01, 4000))
        tree = make_tree(targets, hosts)
        assert_reads_match_oracle(tree, probe_batch(1.0, 1000.0))

    def test_piecewise_nonlinear(self):
        rng = np.random.default_rng(3)
        targets = rng.uniform(0.0, 1000.0, 4000)
        hosts = np.sqrt(targets) * 100.0 + rng.normal(0, 1.0, 4000)
        tree = make_tree(targets, hosts)
        assert tree.num_leaves > 1
        assert_reads_match_oracle(tree, probe_batch(0.0, 1000.0))

    def test_outlier_only_demotion(self):
        # Uncorrelated noise at max_height=1 cannot split: the leaf demotes
        # to exact outliers (or keeps a wide band) — either way the batch
        # walk must mirror it.
        rng = np.random.default_rng(4)
        targets = rng.uniform(0.0, 100.0, 500)
        hosts = rng.uniform(0.0, 100.0, 500)
        tree = make_tree(targets, hosts, max_height=1)
        assert_reads_match_oracle(tree, probe_batch(0.0, 100.0))

    def test_deep_sine_tree(self):
        rng = np.random.default_rng(5)
        targets = rng.uniform(0.0, 1000.0, 5000)
        hosts = np.sin(targets / 50.0) * 500.0 + rng.normal(0, 2.0, 5000)
        tree = make_tree(targets, hosts)
        assert tree.height > 1
        assert_reads_match_oracle(tree, probe_batch(0.0, 1000.0))


class TestShapeEdges:
    def test_empty_tree(self):
        tree = TRSTree()
        tree.build([], [], [])
        batch = tree.lookup_many([KeyRange(0.0, 10.0), KeyRange(-5.0, -1.0)])
        assert batch.num_queries == 2
        assert batch.host_lows.size == 0
        assert batch.outlier_tids.size == 0
        assert_reads_match_oracle(
            tree, [KeyRange(0.0, 10.0), KeyRange(-5.0, -1.0)])

    def test_unbuilt_tree(self):
        tree = TRSTree()
        batch = tree.lookup_many([KeyRange(0.0, 1.0)])
        assert batch.num_queries == 1
        assert batch.host_lows.size == 0

    def test_empty_batch(self):
        targets = np.linspace(0.0, 100.0, 200)
        tree = make_tree(targets, targets * 3.0)
        batch = tree.lookup_many([])
        assert batch.num_queries == 0
        assert batch.host_offsets.tolist() == [0]

    def test_zero_width_target_domain(self):
        # All targets equal: every routing boundary collapses to one point.
        targets = np.full(300, 42.0)
        hosts = np.linspace(0.0, 10.0, 300)
        tree = make_tree(targets, hosts)
        predicates = [KeyRange(42.0, 42.0), KeyRange(41.0, 43.0),
                      KeyRange(0.0, 41.9), KeyRange(42.1, 50.0)]
        assert_reads_match_oracle(tree, predicates)

    def test_predicates_beyond_built_domain(self):
        # Edge leaves are open-ended for post-build inserts; out-of-domain
        # predicates must still visit them, batched exactly like scalar.
        rng = np.random.default_rng(6)
        targets = rng.uniform(100.0, 200.0, 1000)
        tree = make_tree(targets, targets * -1.5 + 7.0)
        predicates = [KeyRange(-1e6, 50.0), KeyRange(250.0, 1e6),
                      KeyRange(-np.inf, np.inf), KeyRange(0.0, 1000.0)]
        assert_reads_match_oracle(tree, predicates)

    def test_after_incremental_inserts_and_deletes(self):
        rng = np.random.default_rng(7)
        targets = rng.uniform(0.0, 1000.0, 2000)
        hosts = 3.0 * targets + rng.normal(0, 0.5, 2000)
        tree = make_tree(targets, hosts)
        for i in range(200):
            tree.insert(float(1000.0 + i), float(-5000.0 - i), 2000 + i)
        for i in range(0, 100, 3):
            tree.delete(float(targets[i]), float(hosts[i]), i)
        assert_reads_match_oracle(tree, probe_batch(0.0, 1200.0))


class TestCoalesce:
    def test_merges_overlap_and_ulp_adjacency(self):
        lows = np.array([0.0, 5.0, np.nextafter(10.0, np.inf), 20.0])
        highs = np.array([6.0, 10.0, 12.0, 25.0])
        ids = np.zeros(4, dtype=np.int64)
        out_lows, out_highs, offsets = coalesce_sorted_ranges(
            lows, highs, ids, 1)
        assert out_lows.tolist() == [0.0, 20.0]
        assert out_highs.tolist() == [12.0, 25.0]
        assert offsets.tolist() == [0, 2]

    def test_gap_wider_than_one_ulp_preserved(self):
        lows = np.array([0.0, 10.0 + 1e-9])
        highs = np.array([10.0, 20.0])
        ids = np.zeros(2, dtype=np.int64)
        out_lows, _, offsets = coalesce_sorted_ranges(lows, highs, ids, 1)
        assert out_lows.tolist() == [0.0, 10.0 + 1e-9]
        assert offsets.tolist() == [0, 2]

    def test_never_merges_across_queries(self):
        lows = np.array([0.0, 5.0])
        highs = np.array([10.0, 15.0])
        ids = np.array([0, 1], dtype=np.int64)
        out_lows, out_highs, offsets = coalesce_sorted_ranges(
            lows, highs, ids, 2)
        assert out_lows.tolist() == [0.0, 5.0]
        assert out_highs.tolist() == [10.0, 15.0]
        assert offsets.tolist() == [0, 1, 2]


# ------------------------------------------------- reads after any writes

DOMAIN = (0.0, 1000.0)

# Datasets that make the builder select every leaf-model family, and split
# deep ("exponential" curves); "gapped" leaves a hole in the domain, so some
# leaves are built empty (no band-covered tuple: they emit no host range
# until the first covered insert).
SHAPES = {
    "linear": lambda t, rng: 2.0 * t + 5.0,
    "exponential": lambda t, rng: np.exp((t + 1.0) / 250.0)
    * (1.0 + rng.normal(0, 0.01, t.size)),
    "piecewise": lambda t, rng: np.sqrt(t) * 100.0 + rng.normal(0, 1.0, t.size),
    "noise": lambda t, rng: rng.uniform(0.0, 100.0, t.size),
    "gapped": lambda t, rng: np.sin(t / 50.0) * 500.0
    + rng.normal(0, 2.0, t.size),
}


def shaped_tree(shape: str, rows: int, seed: int):
    """A built tree plus its live rows ``[(target, host, tid), ...]``."""
    rng = np.random.default_rng(seed)
    targets = rng.uniform(*DOMAIN, rows)
    if shape == "gapped":
        targets = targets[(targets < 350.0) | (targets > 650.0)]
    hosts = SHAPES[shape](targets, rng)
    hosts[::17] += 5000.0                                 # forced outliers
    # Uncorrelated noise that may not split demotes to an outlier-only leaf.
    config = TRSTreeConfig(min_split_size=8,
                           max_height=1 if shape == "noise" else 10)
    tree = TRSTree(config)
    tree.build(targets, hosts, np.arange(targets.size))
    live = list(zip(targets.tolist(), hosts.tolist(), range(targets.size)))
    return tree, live


def provider_over(live):
    def provider(key_range: KeyRange):
        rows = [row for row in live
                if key_range.low <= row[0] <= key_range.high]
        targets, hosts, tids = (np.asarray(column) for column in
                                (zip(*rows) if rows else ((), (), ())))
        return targets.astype(np.float64), hosts.astype(np.float64), \
            tids.astype(np.int64)
    return provider


def leaf_lows(tree: TRSTree) -> list[float]:
    """Every leaf's built lower bound, in key order."""
    return [tree._table.domain.low] + list(tree._table.bounds)


def probes_for(tree: TRSTree) -> list[KeyRange]:
    """Inside / edge / outside positions, plus predicates on leaf bounds."""
    bounds = sorted(set(leaf_lows(tree)) | {tree._table.domain.high})
    picked = bounds[::max(1, len(bounds) // 12)]
    on_bounds = [KeyRange(bound, bound) for bound in picked]
    on_bounds += [KeyRange(low, high) for low, high in zip(picked, picked[2:])]
    on_bounds += [KeyRange(np.nextafter(bound, -np.inf), bound)
                  for bound in picked[:4]]
    return probe_batch(*DOMAIN)[::5] + on_bounds


# A written target is a float anywhere around the domain, one of a few
# integers (duplicates), the k-th leaf bound of the tree as it stands, or
# NaN (a NULL: never stored, never matched).
written_targets = st.one_of(
    st.floats(min_value=-300.0, max_value=1300.0, allow_nan=False),
    st.integers(min_value=-2, max_value=6).map(lambda k: 200.0 * k),
    st.integers(min_value=0, max_value=400).map(lambda k: ("bound", k)),
    st.just(float("nan")),
)
# (target, covered?): a covered write sits exactly on its leaf's prediction.
written_rows = st.tuples(written_targets, st.booleans())
operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), written_rows),
    st.tuples(st.just("insert_many"), st.lists(written_rows, max_size=12)),
    st.tuples(st.just("delete"), st.integers(min_value=0)),
    st.tuples(st.just("update"), st.integers(min_value=0), written_rows),
    st.tuples(st.just("reorganize")),
    st.tuples(st.just("reorganize_children"),
              st.lists(st.integers(min_value=0, max_value=7), max_size=3)),
    st.tuples(st.just("build")),
), max_size=10)


class TestReadsMatchTheLeafScan:
    def test_shapes_cover_every_model_family_and_an_empty_leaf(self):
        families = set()
        for shape in SHAPES:
            tree, _ = shaped_tree(shape, 3000 if shape != "noise" else 400, 0)
            families |= set(map(type, tree._table.models))
        assert families == {LinearModel, PiecewiseLinearModel,
                            OutlierOnlyModel}
        tree, _ = shaped_tree("gapped", 3000, 0)
        assert (tree._table.num_model_covered == 0).any()

    def test_first_covered_insert_makes_an_empty_leaf_emit_in_place(self):
        tree, _ = shaped_tree("gapped", 3000, 0)
        table = tree._table
        row = next(row for row in range(len(table))
                   if table.num_model_covered[row] == table.num_outliers[row] == 0)
        target = (table.lows[row] + table.highs[row]) / 2.0
        point = [KeyRange(target, target)]
        assert tree.lookup_many(point).host_lows.size == 0
        tree.insert(target, table.models[row].predict(target), 10 ** 6)
        assert tree._table is table and table.num_model_covered[row] == 1
        assert tree.lookup_many(point).host_lows.size == 1
        assert len(tree.lookup(point[0]).host_ranges) == 1
        assert_reads_match_oracle(tree, probes_for(tree))

    @SETTINGS
    @given(shape=st.sampled_from(sorted(SHAPES)),
           rows=st.integers(min_value=0, max_value=400),
           seed=st.integers(min_value=0, max_value=5), steps=operations)
    # Found by this property: rebuilding a node used to re-file the row
    # sitting exactly on its upper bound, which the right-hand neighbour
    # owns — one key under two leaves.
    @example(shape="gapped", rows=27, seed=0,
             steps=[("insert", (0.0, False)), ("insert", (0.0, False)),
                    ("insert", (("bound", 1), False)), ("reorganize",)])
    def test_after_any_interleaving_of_writes(self, shape, rows, seed, steps):
        tree, live = shaped_tree(shape, rows, seed)
        next_tid = [10 ** 6]

        def placed(row):
            """Resolve a drawn row to (target, host, tid) on the tree as is."""
            (target, covered) = row
            if isinstance(target, tuple):
                lows = leaf_lows(tree)
                target = lows[target[1] % len(lows)]
            host = -1e7
            if covered and not np.isnan(target):
                table = tree._table
                model = table.models[bisect_right(table.bounds, target)]
                host = model.predict(target)
            next_tid[0] += 1
            return float(target), float(host), next_tid[0]

        def check():
            assert_reads_match_oracle(tree, probes_for(tree))
            tree.check_invariants(*zip(*live))

        check()
        for step in steps:
            kind = step[0]
            if kind == "insert":
                row = placed(step[1])
                tree.insert(*row)
                live.append(row)
            elif kind == "insert_many":
                batch = [placed(row) for row in step[1]]
                tree.insert_many(*(list(column) for column in
                                   (zip(*batch) if batch else ((), (), ()))))
                live.extend(batch)
            elif kind == "delete" and live:
                tree.delete(*live.pop(step[1] % len(live)))
            elif kind == "update" and live:
                position = step[1] % len(live)
                old_target, old_host, tid = live[position]
                new_target, new_host, _ = placed(step[2])
                tree.update(old_target, old_host, new_target, new_host, tid)
                live[position] = (new_target, new_host, tid)
            elif kind == "reorganize":
                tree.reorganize(provider_over(live))
            elif kind == "reorganize_children":
                tree.reorganize_children(provider_over(live), step[1])
            elif kind == "build":
                targets, hosts, tids = provider_over(live)(
                    KeyRange(-np.inf, np.inf))
                tree.build(targets, hosts, tids)
            check()


correlated_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=0, max_size=300,
)

predicate_bounds = st.lists(
    st.tuples(
        st.floats(min_value=-200.0, max_value=1200.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    min_size=1, max_size=16,
)


class TestPropertyEquivalence:
    @SETTINGS
    @given(rows=correlated_rows, bounds=predicate_bounds)
    def test_reads_match_oracle_on_drawn_rows(self, rows, bounds):
        targets = np.array([t for t, _, _ in rows], dtype=np.float64)
        # Mostly-linear hosts with hypothesis-chosen perturbations on the
        # flagged rows: enough structure to build bands, enough noise to
        # populate outlier buffers and force splits.
        hosts = np.array(
            [2.0 * t + (noise if flagged else 0.0)
             for t, noise, flagged in rows], dtype=np.float64)
        tree = TRSTree(TRSTreeConfig(min_split_size=8))
        tree.build(targets, hosts, np.arange(len(rows)))
        predicates = [KeyRange(low, low + span) for low, span in bounds]
        assert_reads_match_oracle(tree, predicates)
