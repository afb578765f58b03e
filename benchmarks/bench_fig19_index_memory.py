"""Figure 19 — Index memory vs. number of tuples (Synthetic).

Paper result: the TRS-Tree on a Linear correlation needs a constant few bytes
(one regression model) regardless of the tuple count, the Sigmoid TRS-Tree
needs more (more leaves) but stays well under 10 MB, while the baseline
B+-tree grows linearly into the hundreds of MB.
"""

from __future__ import annotations

import pytest

from _helpers import build_synthetic_setup
from repro.bench.harness import FigureData
from repro.bench.report import format_figure
from repro.storage.memory import BYTES_PER_MB

TUPLE_COUNTS = [5_000, 10_000, 20_000, 40_000]


def memory_sweep(correlation: str) -> FigureData:
    figure = FigureData(f"Figure 19 ({correlation})", "number of tuples",
                        "index memory (MB)")
    for count in TUPLE_COUNTS:
        setup = build_synthetic_setup(correlation, num_tuples=count,
                                      noise_fraction=0.01)
        figure.add_point("HERMIT", count,
                         setup.mechanism("HERMIT").memory_bytes() / BYTES_PER_MB)
        figure.add_point("Baseline", count,
                         setup.mechanism("Baseline").memory_bytes() / BYTES_PER_MB)
    return figure


@pytest.mark.figure("fig19")
@pytest.mark.parametrize("correlation", ["linear", "sigmoid"])
def test_fig19_index_memory(benchmark, correlation):
    figure = benchmark.pedantic(lambda: memory_sweep(correlation),
                                rounds=1, iterations=1)
    figure.notes.append("paper: TRS-Tree orders of magnitude below the B+-tree")
    print()
    print(format_figure(figure))

    hermit = figure.series["HERMIT"].ys
    baseline = figure.series["Baseline"].ys
    # Hermit is far smaller than the baseline at every scale, and the margin
    # widens as the table grows (the TRS-Tree does not store per-tuple entries).
    for h, b in zip(hermit, baseline):
        assert h < b / 3
    # The baseline grows linearly; Hermit grows much more slowly.
    assert baseline[-1] > 4 * baseline[0] * 0.8
    assert hermit[-1] < baseline[-1] / 5
