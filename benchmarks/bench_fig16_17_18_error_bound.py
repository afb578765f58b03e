"""Figures 16, 17 & 18 — Sensitivity to error_bound and injected noise.

One sweep over ``error_bound`` ∈ {1, 10, 100, 1000, 10000} × noise ∈
{0%, 2.5%, 5%, 7.5%, 10%} produces the three figures:

* Figure 16 — range-lookup throughput: drops drastically as error_bound grows
  (more false positives), but is stable across noise percentages.
* Figure 17 — false-positive ratio: approaches ~0.8 at error_bound = 10000.
* Figure 18 — memory: grows roughly linearly with the noise percentage
  (outlier buffers) and shrinks as error_bound grows (fewer nodes/outliers).
"""

from __future__ import annotations

import pytest

from _helpers import build_synthetic_setup
from repro.bench.harness import FigureData, run_query_batch
from repro.bench.report import format_figure
from repro.core.config import TRSTreeConfig
from repro.storage.identifiers import PointerScheme
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.queries import range_queries

ERROR_BOUNDS = [1.0, 10.0, 100.0, 1_000.0, 10_000.0]
NOISE_FRACTIONS = [0.0, 0.025, 0.05, 0.075, 0.10]
# The paper uses 0.01% selectivity on 20M tuples (~2000 result tuples per
# query); with the scaled-down table we use 1% so each query still returns a
# few hundred tuples and the false-positive ratio is driven by error_bound
# rather than by the tiny result cardinality.
SELECTIVITY = 0.01
NUM_TUPLES = 20_000
QUERIES = 25


def sweep(correlation: str):
    throughput = FigureData(f"Figure 16 ({correlation})", "error_bound", "Kops")
    false_positives = FigureData(f"Figure 17 ({correlation})", "error_bound",
                                 "false positive ratio")
    memory = FigureData(f"Figure 18 ({correlation})", "error_bound",
                        "TRS-Tree memory (MB)")
    for noise in NOISE_FRACTIONS:
        label = f"{noise * 100:.1f}% noise"
        for error_bound in ERROR_BOUNDS:
            config = TRSTreeConfig(error_bound=error_bound)
            setup = build_synthetic_setup(
                correlation, num_tuples=NUM_TUPLES, noise_fraction=noise,
                pointer_scheme=PointerScheme.LOGICAL, trs_config=config)
            hermit = setup.mechanism("HERMIT")
            queries = range_queries(setup.domain, SELECTIVITY, QUERIES, seed=16)
            batch = run_query_batch(setup.database, setup.table_name,
                                    setup.indexes["HERMIT"], queries)
            throughput.add_point(label, error_bound, batch.throughput.kops)
            false_positives.add_point(label, error_bound,
                                      batch.false_positive_ratio)
            memory.add_point(label, error_bound,
                             hermit.memory_bytes() / BYTES_PER_MB)
    return throughput, false_positives, memory


@pytest.mark.figure("fig16")
@pytest.mark.parametrize("correlation", [
    "linear",
    pytest.param("sigmoid", marks=pytest.mark.xfail(
        strict=False,
        reason="fails since the seed: at error_bound=1e4, 0% noise the build "
               "over-splits where it should collapse to one leaf "
               "(ROADMAP item 4)")),
])
def test_fig16_17_18_error_bound_and_noise(benchmark, correlation):
    throughput, false_positives, memory = benchmark.pedantic(
        lambda: sweep(correlation), rounds=1, iterations=1)
    throughput.notes.append("paper: throughput drops with error_bound, stable vs noise")
    false_positives.notes.append("paper: false-positive ratio ~0.8 at error_bound=1e4")
    memory.notes.append("paper: memory grows with noise, shrinks with error_bound")
    print()
    for figure in (throughput, false_positives, memory):
        print(format_figure(figure))
        print()

    clean = "0.0% noise"
    noisy = "10.0% noise"
    # Figure 16 shape: throughput at the largest error_bound is clearly lower
    # than at the smallest (false positives dominate).
    assert throughput.series[clean].ys[-1] < throughput.series[clean].ys[0]
    # Figure 17 shape: false-positive ratio rises monotonically-ish with
    # error_bound and becomes large at 10000.
    assert false_positives.series[clean].ys[-1] > 0.4
    assert false_positives.series[clean].ys[0] < 0.3
    # Figure 16/17: throughput is not destroyed by noise (outlier buffers).
    # The Sigmoid case is checked at a small error_bound: in its flat tails a
    # noisy fit with a large error_bound inflates the returned host ranges far
    # more than on the Linear correlation (see EXPERIMENTS.md).
    mid = 1 if correlation == "sigmoid" else len(ERROR_BOUNDS) // 2
    floor = 0.3 if correlation == "linear" else 0.15
    assert throughput.series[noisy].ys[mid] > floor * throughput.series[clean].ys[mid]
    # Figure 18 shape: more noise => more memory (outlier buffers); larger
    # error_bound => not more memory.
    assert memory.series[noisy].ys[0] > memory.series[clean].ys[0]
    assert memory.series[clean].ys[-1] <= memory.series[clean].ys[0] * 1.5
