"""Figures 12 & 13 — Point lookup throughput vs. number of tuples.

Paper result: Hermit pays a visible penalty on point lookups (≈35% lower
throughput with logical pointers, ≈15% with physical pointers on Linear), and
the Sigmoid case degrades further as the tuple count grows because the
correlation becomes harder to model, producing more false positives.
"""

from __future__ import annotations

import pytest

from _helpers import build_synthetic_setup
from repro.bench.harness import FigureData, run_point_batch
from repro.bench.report import format_figure
from repro.bench.timing import scaled
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import point_queries

TUPLE_COUNTS = [5_000, 10_000, 20_000, 40_000]  # stand-in for 1M..20M
QUERIES_PER_POINT = 200


def point_sweep(correlation: str, pointer_scheme: PointerScheme,
                figure_name: str) -> FigureData:
    figure = FigureData(figure_name, "number of tuples", "Kops")
    for count in TUPLE_COUNTS:
        setup = build_synthetic_setup(correlation, num_tuples=count,
                                      pointer_scheme=pointer_scheme)
        values = point_queries(setup.dataset.columns["colC"],
                               count=scaled(QUERIES_PER_POINT), seed=12)
        for label, index_name in setup.indexes.items():
            batch = run_point_batch(setup.database, setup.table_name,
                                    index_name, values)
            figure.add_point(label, count, batch.throughput.kops)
    return figure


@pytest.mark.figure("fig12")
@pytest.mark.parametrize("scheme", [PointerScheme.LOGICAL, PointerScheme.PHYSICAL],
                         ids=["logical", "physical"])
def test_fig12_point_lookup_linear(benchmark, scheme):
    figure = benchmark.pedantic(
        lambda: point_sweep("linear", scheme, f"Figure 12 ({scheme.value})"),
        rounds=1, iterations=1)
    figure.notes.append("paper: HERMIT 15-35% below Baseline on point lookups")
    print()
    print(format_figure(figure))
    for hermit, baseline in zip(figure.series["HERMIT"].ys,
                                figure.series["Baseline"].ys):
        assert hermit > 0 and baseline > 0
        # Hermit pays a visible point-lookup penalty (paper: 15-35%; larger
        # here because a single B+-tree probe is one bisect while Hermit's
        # multi-step path is several Python calls) but must not collapse.
        assert hermit * 12.0 >= baseline


@pytest.mark.figure("fig13")
@pytest.mark.parametrize("scheme", [PointerScheme.LOGICAL, PointerScheme.PHYSICAL],
                         ids=["logical", "physical"])
def test_fig13_point_lookup_sigmoid(benchmark, scheme):
    figure = benchmark.pedantic(
        lambda: point_sweep("sigmoid", scheme, f"Figure 13 ({scheme.value})"),
        rounds=1, iterations=1)
    figure.notes.append("paper: Sigmoid degrades with tuple count (more false positives)")
    print()
    print(format_figure(figure))
    for hermit, baseline in zip(figure.series["HERMIT"].ys,
                                figure.series["Baseline"].ys):
        assert hermit > 0 and baseline > 0
        assert hermit * 12.0 >= baseline
