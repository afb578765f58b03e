"""Ablations of the TRS-Tree design choices called out in DESIGN.md.

Not a paper figure; these benches quantify the design decisions the paper
only discusses qualitatively:

* ``node_fanout`` — wider nodes mean shallower trees but coarser partitions.
* ``max_height`` — capping the depth trades outlier-buffer growth for fewer
  nodes.
* sampling-based construction (Appendix D.2) — skips full fits for nodes that
  will clearly split, without changing lookup results.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import FigureData, construction_time, run_query_batch
from repro.bench.report import format_figure
from repro.bench.timing import scaled
from repro.core.config import TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.index.base import KeyRange
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import generate_synthetic

NUM_TUPLES = 30_000


def sigmoid_arrays(num_tuples: int):
    dataset = generate_synthetic(scaled(num_tuples), "sigmoid",
                                 noise_fraction=0.01, seed=7)
    return (dataset.columns["colC"], dataset.columns["colB"],
            dataset.columns["colA"].astype(int))


def tree_with(config: TRSTreeConfig, arrays) -> TRSTree:
    targets, hosts, tids = arrays
    tree = TRSTree(config)
    tree.build(targets, hosts, tids)
    return tree


@pytest.mark.figure("ablation")
def test_ablation_node_fanout(benchmark):
    arrays = sigmoid_arrays(NUM_TUPLES)

    def sweep():
        figure = FigureData("Ablation: node_fanout", "fanout", "value")
        for fanout in (2, 4, 8, 16):
            tree = tree_with(TRSTreeConfig(node_fanout=fanout), arrays)
            figure.add_point("leaves", fanout, tree.num_leaves)
            figure.add_point("height", fanout, tree.height)
            figure.add_point("memory MB", fanout,
                             tree.memory_bytes() / BYTES_PER_MB)
        return figure

    figure = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_figure(figure))
    heights = figure.series["height"].ys
    # Wider fanout yields an equal-or-shallower tree.
    assert heights[-1] <= heights[0]


@pytest.mark.figure("ablation")
def test_ablation_max_height(benchmark):
    arrays = sigmoid_arrays(NUM_TUPLES)

    def sweep():
        figure = FigureData("Ablation: max_height", "max_height", "value")
        for max_height in (1, 2, 4, 10):
            tree = tree_with(TRSTreeConfig(max_height=max_height), arrays)
            figure.add_point("leaves", max_height, tree.num_leaves)
            figure.add_point("outliers", max_height, tree.num_outliers)
        return figure

    figure = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_figure(figure))
    outliers = figure.series["outliers"].ys
    # A single-level tree must absorb far more outliers than a deep one.
    assert outliers[0] >= outliers[-1]


@pytest.mark.figure("ablation")
def test_ablation_sampling_construction(benchmark):
    arrays = sigmoid_arrays(NUM_TUPLES)
    targets, hosts, tids = arrays

    def measure():
        plain = construction_time(
            lambda: tree_with(TRSTreeConfig(sample_fraction=None), arrays))
        sampled = construction_time(
            lambda: tree_with(TRSTreeConfig(sample_fraction=0.05), arrays))
        return plain, sampled

    plain_seconds, sampled_seconds = benchmark.pedantic(measure, rounds=1,
                                                        iterations=1)
    print(f"\nconstruction: full-fit={plain_seconds:.3f}s "
          f"sampled={sampled_seconds:.3f}s")

    # Sampling must never change lookup results.
    plain_tree = tree_with(TRSTreeConfig(sample_fraction=None), arrays)
    sampled_tree = tree_with(TRSTreeConfig(sample_fraction=0.05), arrays)
    domain = (float(targets.min()), float(targets.max()))
    for query in range_queries(domain, 0.001, count=5, seed=3):
        predicate = KeyRange(query.low, query.high)
        import numpy as np

        def resolve(tree):
            result = tree.lookup(predicate)
            candidates = {int(t) for t in result.outlier_tids}
            for host_range in result.host_ranges:
                candidates.update(
                    int(i) for i in np.flatnonzero(
                        (hosts >= host_range.low) & (hosts <= host_range.high)))
            return {tid for tid in candidates
                    if predicate.contains(float(targets[tid]))}

        assert resolve(plain_tree) == resolve(sampled_tree)


@pytest.mark.figure("ablation")
def test_ablation_error_bound_lookup_cost(benchmark):
    """Direct measurement of the space/computation trade-off (Section 6)."""
    dataset = generate_synthetic(scaled(NUM_TUPLES), "sigmoid",
                                 noise_fraction=0.01, seed=8)
    from repro.engine.catalog import IndexMethod
    from repro.engine.database import Database
    from repro.workloads.synthetic import load_synthetic

    def sweep():
        figure = FigureData("Ablation: error_bound trade-off", "error_bound",
                            "value")
        for error_bound in (1.0, 10.0, 100.0):
            database = Database()
            table_name = load_synthetic(database, dataset)
            entry = database.create_index(
                "hermit_colC", table_name, "colC", method=IndexMethod.HERMIT,
                host_column="colB",
                trs_config=TRSTreeConfig(error_bound=error_bound))
            hermit = entry.mechanism
            queries = range_queries((0.0, 1e6), 0.0005, count=20, seed=9)
            batch = run_query_batch(database, table_name, "hermit_colC",
                                    queries)
            figure.add_point("Kops", error_bound, batch.throughput.kops)
            figure.add_point("memory MB", error_bound,
                             hermit.memory_bytes() / BYTES_PER_MB)
            figure.add_point("false positives", error_bound,
                             batch.false_positive_ratio)
        return figure

    figure = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_figure(figure))
    # Larger error_bound never increases memory.
    memory = figure.series["memory MB"].ys
    assert memory[-1] <= memory[0] * 1.2
