"""Figures 10 & 11 — Range-lookup time breakdown (Synthetic – Sigmoid).

Paper result: with logical pointers both Hermit and the baseline spend over
90% of their time in the primary-index lookup; with physical pointers the
bottleneck shifts to the base-table access.  Hermit's own TRS-Tree phase is a
negligible fraction in every configuration.

Reproduction note: validation is a single numpy gather + mask and every
B+-tree read — the host probe, the baseline's secondary probe, primary-index
resolution — is a ``searchsorted`` over the tree's flat view, so no phase
walks Python objects per tuple.  The logical scheme reproduces the paper's
shape (primary-index resolution is the largest phase for both mechanisms),
and so does the baseline under physical pointers (the base-table access
dominates).  Deviation: Hermit's TRS-Tree phase is a scalar Python probe per
overlapped leaf, so its share is 0.2–0.4 rather than negligible, and under
physical pointers it grows with the selectivity (more leaves per predicate,
while the host probe stays one slice) instead of shrinking.
"""

from __future__ import annotations

import pytest

from _helpers import SYNTHETIC_SELECTIVITIES, breakdown_sweep, build_synthetic_setup
from repro.bench.report import format_figure
from repro.storage.identifiers import PointerScheme


@pytest.fixture(scope="module", params=[PointerScheme.LOGICAL,
                                        PointerScheme.PHYSICAL],
                ids=["logical", "physical"])
def sigmoid_setup(request):
    return build_synthetic_setup("sigmoid", num_tuples=30_000,
                                 pointer_scheme=request.param), request.param


@pytest.mark.figure("fig10")
def test_fig10_hermit_breakdown(benchmark, sigmoid_setup):
    setup, scheme = sigmoid_setup
    figure = benchmark.pedantic(
        lambda: breakdown_sweep(setup, "HERMIT", SYNTHETIC_SELECTIVITIES,
                                f"Figure 10 HERMIT ({scheme.value})"),
        rounds=1, iterations=1)
    print()
    print(format_figure(figure))

    trs_fractions = figure.series["TRS-Tree"].ys
    # TRS-Tree navigation never dominates the lookup path.
    assert trs_fractions[-1] < 0.5
    if scheme is PointerScheme.LOGICAL:
        # Its share shrinks as the selectivity (result size) grows, and
        # primary-index resolution dominates with logical pointers.
        assert trs_fractions[-1] <= trs_fractions[0] + 0.05
        assert figure.series["Primary Index"].ys[-1] > 0.3
    else:
        assert figure.series["Primary Index"].ys[-1] == 0.0
        # The host probe is one slice of the flat view and validation one
        # gather + mask: neither takes half of the lookup.
        assert figure.series["Host Index"].ys[-1] < 0.5
        assert figure.series["Base Table"].ys[-1] < 0.5


@pytest.mark.figure("fig11")
def test_fig11_baseline_breakdown(benchmark, sigmoid_setup):
    setup, scheme = sigmoid_setup
    figure = benchmark.pedantic(
        lambda: breakdown_sweep(setup, "Baseline", SYNTHETIC_SELECTIVITIES,
                                f"Figure 11 Baseline ({scheme.value})"),
        rounds=1, iterations=1)
    # For the baseline the "Host Index" share is its secondary B+-tree.
    figure.notes.append("'Host Index' = the baseline's secondary index probe")
    print()
    print(format_figure(figure))

    assert figure.series["TRS-Tree"].ys == [0.0] * len(SYNTHETIC_SELECTIVITIES)
    if scheme is PointerScheme.LOGICAL:
        assert figure.series["Primary Index"].ys[-1] > 0.3
    else:
        # The paper's shape: with physical pointers the bottleneck is the
        # base-table access (the secondary probe is one slice).
        assert figure.series["Base Table"].ys[-1] > 0.5
        assert figure.series["Host Index"].ys[-1] < 0.5
