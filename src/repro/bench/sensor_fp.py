"""Sensor-workload false-positive benchmark: Hermit vs. the baseline index.

The power-law sensor response is the hardest workload for the TRS-Tree's
confidence bands: before the adaptive leaf models, fixed linear bands
admitted so many false positives that Hermit trailed the complete secondary
index by ~8x on range queries (ROADMAP "Sensor-workload false positives").
This suite measures that gap directly — same queries, both mechanisms, best
of several interleaved rounds — and reports the throughput ratio plus
Hermit's observed false-positive ratio, so the adaptive-leaf-model fix
(candidate-count-aware splits, per-leaf model selection, noise-floor band
widening, outlier-only demotion) stays pinned by CI.

Both mechanisms are driven through ``lookup_range_many``, i.e. the segmented
pipeline the engine serves batches with.  Shared between the standalone
``benchmarks/bench_sensor_fp.py`` script and its small-scale pytest smoke
test; the bare-mechanism setup comes from :mod:`repro.bench.hotpath`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.hotpath import HotpathSetup, build_hotpath_setup
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries

DEFAULT_ROUNDS = 5


@dataclass
class SensorFpMeasurement:
    """Hermit-vs-baseline gap on one sensor-workload configuration."""

    workload: str
    mechanism: str
    pointer_scheme: str
    host_index: str
    num_tuples: int
    selectivity: float
    num_queries: int
    total_results: int
    hermit_seconds: float
    baseline_seconds: float
    hermit_fp_ratio: float
    hermit_candidates: int
    trs_leaves: int
    results_agree: bool

    @property
    def hermit_kops(self) -> float:
        """Hermit batch-lookup throughput in K queries per second."""
        return self._kops(self.hermit_seconds)

    @property
    def baseline_kops(self) -> float:
        """Baseline batch-lookup throughput in K queries per second."""
        return self._kops(self.baseline_seconds)

    @property
    def hermit_vs_baseline(self) -> float:
        """Hermit throughput as a fraction of the baseline's (gated).

        The CI floor is 1/3 — i.e. the sensor-workload gap must stay <= 3x,
        down from the ~8x the fixed linear bands measured.  A degenerate
        zero baseline time yields 0 (the gate then fails loudly) rather
        than inf (which would silently pass a broken measurement).
        """
        if self.hermit_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.hermit_seconds

    @property
    def gap(self) -> float:
        """The baseline-over-Hermit slowdown factor (the "gap")."""
        if self.baseline_seconds <= 0:
            return float("inf")
        return self.hermit_seconds / self.baseline_seconds

    def _kops(self, seconds: float) -> float:
        if seconds <= 0:
            return 0.0
        return self.num_queries / seconds / 1e3

    def as_dict(self) -> dict:
        """JSON-ready representation for the perf-regression gate."""
        return {
            "workload": self.workload,
            "mechanism": self.mechanism,
            "pointer_scheme": self.pointer_scheme,
            "host_index": self.host_index,
            "num_tuples": self.num_tuples,
            "selectivity": self.selectivity,
            "num_queries": self.num_queries,
            "total_results": self.total_results,
            "hermit_kops": self.hermit_kops,
            "baseline_kops": self.baseline_kops,
            "hermit_vs_baseline": self.hermit_vs_baseline,
            "gap": self.gap,
            "hermit_fp_ratio": self.hermit_fp_ratio,
            "hermit_candidates": self.hermit_candidates,
            "trs_leaves": self.trs_leaves,
            "results_agree": self.results_agree,
        }


def measure_sensor_fp(setup: HotpathSetup, selectivity: float,
                      num_queries: int, rounds: int,
                      pointer_scheme: PointerScheme,
                      host_index_kind: str,
                      seed: int = 42) -> SensorFpMeasurement:
    """Race both mechanisms over identical queries, best of ``rounds``.

    The rounds interleave the two mechanisms so background jitter (CI
    runners) hits both sides equally rather than biasing whichever ran
    second.
    """
    queries = range_queries(setup.domain, selectivity, count=num_queries,
                            seed=seed)
    predicates = [(q.low, q.high) for q in queries]

    hermit_best = float("inf")
    baseline_best = float("inf")
    hermit_batch = baseline_batch = None
    for _ in range(max(1, rounds)):
        setup.hermit.reset_breakdown()
        started = time.perf_counter()
        hermit_batch = setup.hermit.lookup_range_many(predicates)
        hermit_best = min(hermit_best, time.perf_counter() - started)

        started = time.perf_counter()
        baseline_batch = setup.baseline.lookup_range_many(predicates)
        baseline_best = min(baseline_best, time.perf_counter() - started)

    agree = all(
        set(h.tolist()) == set(b.tolist())
        for h, b in zip(hermit_batch.locations_per_query,
                        baseline_batch.locations_per_query)
    )
    breakdown = hermit_batch.breakdown
    return SensorFpMeasurement(
        workload="sensor",
        mechanism="HERMIT",
        pointer_scheme=pointer_scheme.value,
        host_index=host_index_kind,
        num_tuples=setup.num_tuples,
        selectivity=selectivity,
        num_queries=num_queries,
        total_results=hermit_batch.total_results,
        hermit_seconds=hermit_best,
        baseline_seconds=baseline_best,
        hermit_fp_ratio=breakdown.false_positive_ratio,
        hermit_candidates=breakdown.candidates,
        trs_leaves=setup.hermit.trs_tree.num_leaves,
        results_agree=agree,
    )


def run_sensor_fp_suite(num_tuples: int = 120_000, selectivity: float = 1e-3,
                        num_queries: int = 12, rounds: int = DEFAULT_ROUNDS,
                        pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                        host_index_kind: str = "btree",
                        seed: int = 42) -> list[SensorFpMeasurement]:
    """Build the sensor workload and measure the Hermit-vs-baseline gap."""
    setup = build_hotpath_setup("sensor", num_tuples,
                                pointer_scheme=pointer_scheme,
                                host_index_kind=host_index_kind, seed=seed)
    return [measure_sensor_fp(setup, selectivity, num_queries, rounds,
                              pointer_scheme, host_index_kind, seed=seed)]
