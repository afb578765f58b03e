"""Figures 27–30 — Hermit vs. Correlation Maps vs. Baseline under noise.

Paper result (Appendix E): CM's range-lookup throughput degrades sharply as
the percentage of injected noise grows (it has no outlier handling, so noisy
tuples drag extra host buckets into every mapping), while Hermit sustains its
throughput by parking noise in outlier buffers.  Both save memory relative to
the complete B+-tree, with Hermit saving the most; CM's memory shrinks as its
bucket size grows, trading throughput for space.  Figures 27/28 use the
Linear correlation, 29/30 the Sigmoid one.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import FigureData, run_query_batch
from repro.bench.report import format_figure
from repro.bench.timing import scaled
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import TARGET_DOMAIN, generate_synthetic, load_synthetic

NOISE_FRACTIONS = [0.0, 0.025, 0.05, 0.075, 0.10]
# The paper's CM bucket sizes (16 .. 4096 distinct values per bucket) are
# defined relative to a 20M-tuple table; with the scaled-down table we keep
# the *tuples-per-bucket* ratio comparable by using coarser bucket widths on
# the 10^6-wide value domain (2^12 .. 2^16 value units per bucket).
CM_TARGET_BUCKETS = [2 ** 12, 2 ** 14, 2 ** 16]
CM_HOST_BUCKET = 2 ** 14
NUM_TUPLES = 20_000
SELECTIVITY = 0.0001
QUERIES = 25


def build_mechanisms(correlation: str, noise: float):
    dataset = generate_synthetic(scaled(NUM_TUPLES), correlation,
                                 noise_fraction=noise, seed=27)
    database = Database()
    table_name = load_synthetic(database, dataset)
    database.create_index("hermit_colC", table_name, "colC",
                          method=IndexMethod.HERMIT, host_column="colB")
    database.create_index("baseline_colC", table_name, "colC",
                          method=IndexMethod.BTREE)
    indexes = {"HERMIT": "hermit_colC", "Baseline": "baseline_colC"}
    for width in CM_TARGET_BUCKETS:
        database.create_index(
            f"cm_{width}", table_name, "colC",
            method=IndexMethod.CORRELATION_MAP, host_column="colB",
            cm_target_bucket_width=float(width),
            cm_host_bucket_width=float(CM_HOST_BUCKET))
        indexes[f"CM-{width}"] = f"cm_{width}"
    return database, table_name, indexes, dataset


def noise_sweep(correlation: str):
    throughput = FigureData(f"Figures 27/29 ({correlation})",
                            "injected noise", "Kops")
    memory = FigureData(f"Figures 28/30 ({correlation})",
                        "injected noise", "index memory (MB)")
    for noise in NOISE_FRACTIONS:
        database, table_name, indexes, dataset = build_mechanisms(
            correlation, noise)
        entries = database.catalog.table_entry(table_name).indexes
        domain = (float(dataset.columns["colC"].min()),
                  float(dataset.columns["colC"].max()))
        queries = range_queries(domain, SELECTIVITY, QUERIES, seed=28)
        for label, index_name in indexes.items():
            batch = run_query_batch(database, table_name, index_name, queries)
            throughput.add_point(label, noise, batch.throughput.kops)
            memory.add_point(label, noise,
                             entries[index_name].mechanism.memory_bytes()
                             / BYTES_PER_MB)
    return throughput, memory


@pytest.mark.figure("fig27-30")
@pytest.mark.parametrize("correlation", ["linear", "sigmoid"])
def test_fig27_30_cm_comparison(benchmark, correlation):
    throughput, memory = benchmark.pedantic(lambda: noise_sweep(correlation),
                                            rounds=1, iterations=1)
    throughput.notes.append(
        "paper: HERMIT throughput stable vs noise; CM degrades with noise")
    memory.notes.append(
        "paper: HERMIT smallest; CM memory falls as bucket width grows")
    print()
    print(format_figure(throughput))
    print()
    print(format_figure(memory))

    hermit_tp = throughput.series["HERMIT"].ys
    # Hermit's throughput does not collapse as noise grows.
    assert hermit_tp[-1] > 0.3 * hermit_tp[0]

    finest_cm = f"CM-{CM_TARGET_BUCKETS[0]}"
    cm_tp = throughput.series[finest_cm].ys
    hermit_degradation = hermit_tp[0] / max(hermit_tp[-1], 1e-12)
    cm_degradation = cm_tp[0] / max(cm_tp[-1], 1e-12)
    # CM suffers more from noise than Hermit does.
    assert cm_degradation >= 0.8 * hermit_degradation

    # Memory: Hermit and CM both undercut the complete B+-tree at high noise;
    # Hermit is the smallest of all mechanisms at zero noise.
    baseline_memory = memory.series["Baseline"].ys
    hermit_memory = memory.series["HERMIT"].ys
    assert hermit_memory[0] < baseline_memory[0] / 5
    for width in CM_TARGET_BUCKETS:
        assert memory.series[f"CM-{width}"].ys[0] < baseline_memory[0]
    # CM memory decreases as the bucket width grows (coarser buckets).
    coarsest_cm = f"CM-{CM_TARGET_BUCKETS[-1]}"
    assert memory.series[coarsest_cm].ys[0] <= memory.series[finest_cm].ys[0]
    assert TARGET_DOMAIN[1] > TARGET_DOMAIN[0]
