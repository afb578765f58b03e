"""Figure 9 — Range lookup throughput vs. selectivity (Synthetic – Sigmoid).

Paper result: even for the harder (polynomial-shaped) Sigmoid correlation the
performance gap between Hermit and the baseline barely changes relative to
the Linear case — the TRS-Tree simply uses more leaves.
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
def sigmoid_setup(request):
    return build_synthetic_setup("sigmoid", num_tuples=40_000,
                                 pointer_scheme=request.param), request.param


@pytest.mark.figure("fig9")
@pytest.mark.parametrize("mechanism_label", ["HERMIT", "Baseline"])
def test_fig09_range_lookup_throughput(benchmark, sigmoid_setup, mechanism_label):
    setup, _ = sigmoid_setup
    queries = range_queries(setup.domain, selectivity=0.0005, count=30, seed=9)
    results = benchmark(single_lookups(setup, mechanism_label, queries))
    assert len(results) == 30


@pytest.mark.figure("fig9")
def test_fig09_report_selectivity_sweep(benchmark, sigmoid_setup):
    setup, scheme = sigmoid_setup
    figure = benchmark.pedantic(
        lambda: selectivity_sweep(setup, SYNTHETIC_SELECTIVITIES,
                                  f"Figure 9 ({scheme.value} pointers)",
                                  queries_per_point=40),
        rounds=1, iterations=1)
    figure.notes.append("paper: gap vs Baseline barely changes from the Linear case")
    print()
    print(format_figure(figure))

    # Sigmoid needs more leaves than Linear, but remains exact and competitive.
    hermit_mechanism = setup.mechanism("HERMIT")
    assert hermit_mechanism.trs_tree.num_leaves > 1

    hermit = geometric_mean(figure.series["HERMIT"].ys)
    baseline = geometric_mean(figure.series["Baseline"].ys)
    assert_within_factor(hermit, baseline, factor=3.0)
