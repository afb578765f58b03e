"""Sensor-workload false-positive gap: Hermit vs. the complete baseline index.

The power-law sensor response is the hardest workload for the TRS-Tree's
confidence bands: under fixed linear bands Hermit trailed the complete
secondary index by ~8x on range queries.  The adaptive leaf models
(candidate-count-aware splits, per-leaf model selection, noise-floor band
widening, outlier-only demotion) closed that, and this race keeps it
closed: same queries through both mechanisms' ``lookup_range_many`` (the
segmented pipeline the engine serves batches with), gated on the
throughput ratio — the ratio *is* the paper's claim that Hermit trades a
bounded slowdown for its size.
"""

from __future__ import annotations

import numpy as np

from repro.bench.hotpath import build_hotpath_setup
from repro.bench.timing import paired_ratio
from repro.workloads.queries import range_queries


def measure_sensor_fp(num_tuples: int, num_queries: int, rounds: int,
                      selectivity: float = 1e-3, seed: int = 42) -> dict:
    """Race Hermit against the baseline index over identical range batches.

    Returns one measurement: ``hermit_vs_baseline`` is Hermit's throughput
    as a fraction of the baseline's (the CI floor is 1/3, i.e. a gap of at
    most 3x), next to Hermit's observed false-positive ratio.
    """
    setup = build_hotpath_setup("sensor", num_tuples, seed=seed)
    predicates = [(query.low, query.high) for query in
                  range_queries(setup.domain, selectivity, count=num_queries,
                                seed=seed)]
    batches = {}

    def hermit() -> None:
        batches["hermit"] = setup.hermit.lookup_range_many(predicates)

    def baseline() -> None:
        batches["baseline"] = setup.baseline.lookup_range_many(predicates)

    paired = paired_ratio(hermit, baseline, rounds)
    breakdown = batches["hermit"].breakdown
    return {
        "workload": "sensor",
        "mechanism": "HERMIT",
        "pointer_scheme": "physical",
        "host_index": "btree",
        "num_tuples": num_tuples,
        "selectivity": selectivity,
        "num_queries": num_queries,
        "total_results": batches["hermit"].total_results,
        "hermit_vs_baseline": paired.ratio,
        "hermit_fp_ratio": breakdown.false_positive_ratio,
        "hermit_candidates": breakdown.candidates,
        "trs_leaves": setup.hermit.trs_tree.num_leaves,
        "results_agree": all(
            np.array_equal(found, expected)
            for found, expected in zip(
                batches["hermit"].locations_per_query,
                batches["baseline"].locations_per_query)),
        **paired.as_dict("hermit_seconds", "baseline_seconds"),
    }
