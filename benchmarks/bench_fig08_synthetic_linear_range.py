"""Figure 8 — Range lookup throughput vs. selectivity (Synthetic – Linear).

Paper result: with a Linear correlation the TRS-Tree needs a single leaf, and
Hermit's throughput is very close to the baseline for both tuple-identifier
schemes (1.19 vs 1.27 K ops at 0.01% selectivity with logical pointers).
"""

from __future__ import annotations

import pytest

from _helpers import (
    SYNTHETIC_SELECTIVITIES,
    assert_within_factor,
    build_synthetic_setup,
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
def linear_setup(request):
    return build_synthetic_setup("linear", num_tuples=40_000,
                                 pointer_scheme=request.param), request.param


@pytest.mark.figure("fig8")
@pytest.mark.parametrize("mechanism_label", ["HERMIT", "Baseline"])
def test_fig08_range_lookup_throughput(benchmark, linear_setup, mechanism_label):
    setup, _ = linear_setup
    queries = range_queries(setup.domain, selectivity=0.0005, count=30, seed=8)
    results = benchmark(single_lookups(setup, mechanism_label, queries))
    assert len(results) == 30


@pytest.mark.figure("fig8")
def test_fig08_report_selectivity_sweep(benchmark, linear_setup):
    setup, scheme = linear_setup
    figure = benchmark.pedantic(
        lambda: selectivity_sweep(setup, SYNTHETIC_SELECTIVITIES,
                                  f"Figure 8 ({scheme.value} pointers)",
                                  queries_per_point=40),
        rounds=1, iterations=1)
    figure.notes.append("paper: HERMIT within ~10% of Baseline on Linear")
    print()
    print(format_figure(figure))

    # The TRS-Tree for a (noisy) linear correlation stays tiny.
    hermit_mechanism = setup.mechanism("HERMIT")
    assert hermit_mechanism.trs_tree.num_leaves <= 16

    hermit = geometric_mean(figure.series["HERMIT"].ys)
    baseline = geometric_mean(figure.series["Baseline"].ys)
    assert_within_factor(hermit, baseline, factor=2.5)
