"""Figure 4 — Range lookup throughput vs. selectivity (Stock).

Paper result: with both tuple-identifier schemes, Hermit's range-query
throughput on the Stock workload is competitive with the complete B+-tree
baseline (within a small factor), and the gap narrows as the selectivity
grows because false-positive removal is amortised over more results.
"""

from __future__ import annotations

import pytest

from _helpers import (
    STOCK_SELECTIVITIES,
    assert_within_factor,
    build_stock_setup,
    geometric_mean,
    selectivity_sweep,
    single_lookups,
)
from repro.bench.report import format_figure
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries


@pytest.fixture(scope="module", params=[PointerScheme.LOGICAL,
                                        PointerScheme.PHYSICAL],
                ids=["logical", "physical"])
def stock_setup(request):
    return build_stock_setup(num_stocks=5, num_days=4_000,
                             pointer_scheme=request.param), request.param


@pytest.mark.figure("fig4")
@pytest.mark.parametrize("mechanism_label", ["HERMIT", "Baseline"])
def test_fig04_range_lookup_throughput(benchmark, stock_setup, mechanism_label):
    """Benchmark one batch of 5%-selectivity range lookups per mechanism."""
    setup, _ = stock_setup
    queries = range_queries(setup.domain, selectivity=0.05, count=20, seed=4)
    results = benchmark(single_lookups(setup, mechanism_label, queries))
    assert all(r.locations is not None for r in results)


@pytest.mark.figure("fig4")
def test_fig04_report_selectivity_sweep(benchmark, stock_setup):
    """Regenerate the full Figure 4 series and check its shape."""
    setup, scheme = stock_setup

    def sweep():
        return selectivity_sweep(setup, STOCK_SELECTIVITIES,
                                 f"Figure 4 ({scheme.value} pointers)")

    figure = benchmark.pedantic(sweep, rounds=1, iterations=1)
    figure.notes.append(
        "paper: HERMIT competitive with Baseline; gap narrows as selectivity grows"
    )
    print()
    print(format_figure(figure))

    hermit = geometric_mean(figure.series["HERMIT"].ys)
    baseline = geometric_mean(figure.series["Baseline"].ys)
    # Shape check: Hermit stays within 3x of the baseline across the sweep
    # (the paper reports a gap well under 2x on this workload).
    assert_within_factor(hermit, baseline, factor=3.0)
