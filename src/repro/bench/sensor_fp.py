"""Sensor-workload false-positive gap: Hermit vs. the complete baseline index.

The power-law sensor response is the hardest workload for the TRS-Tree's
confidence bands: under fixed linear bands Hermit trailed the complete
secondary index by ~8x on range queries.  The adaptive leaf models
(candidate-count-aware splits, per-leaf model selection, noise-floor band
widening, outlier-only demotion) closed that, and this race keeps it
closed: one ``Database`` holds both mechanisms on the same column, and the
same queries go through each by name with ``Database.query_with_many`` (the
segmented pipeline the engine serves batches with), gated on the
throughput ratio — the ratio *is* the paper's claim that Hermit trades a
bounded slowdown for its size.
"""

from __future__ import annotations

import numpy as np

from repro.bench.timing import paired_ratio
from repro.bench.writepath import _workload_columns, build_write_database
from repro.engine.query import RangePredicate
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries

_TABLE = "sensor_fp"


def measure_sensor_fp(num_tuples: int, num_queries: int, rounds: int,
                      selectivity: float = 1e-3, seed: int = 42) -> dict:
    """Race Hermit against the baseline index over identical range batches.

    Returns one measurement: ``hermit_vs_baseline`` is Hermit's throughput
    as a fraction of the baseline's (the CI floor is 1/3, i.e. a gap of at
    most 3x), next to Hermit's observed false-positive ratio.
    """
    targets, hosts = _workload_columns("sensor", num_tuples, seed)
    # A complete index on the host column, Hermit on the target
    # ("idx_target"), and the baseline beside it.
    database = build_write_database(_TABLE, "HERMIT", {
        "pk": np.arange(num_tuples, dtype=np.float64),
        "host": np.asarray(hosts, dtype=np.float64),
        "target": np.asarray(targets, dtype=np.float64),
    }, PointerScheme.PHYSICAL)
    database.create_index("baseline", _TABLE, "target")
    domain = (float(np.min(targets)), float(np.max(targets)))
    predicates = [RangePredicate("target", query.low, query.high)
                  for query in range_queries(domain, selectivity,
                                             count=num_queries, seed=seed)]
    batches = {}

    def hermit() -> None:
        batches["hermit"] = database.query_with_many(_TABLE, "idx_target",
                                                     predicates)

    def baseline() -> None:
        batches["baseline"] = database.query_with_many(_TABLE, "baseline",
                                                       predicates)

    paired = paired_ratio(hermit, baseline, rounds)
    breakdown = batches["hermit"][0].breakdown
    hermit_index = database.catalog.table_entry(_TABLE).indexes[
        "idx_target"].mechanism
    return {
        "workload": "sensor",
        "mechanism": "HERMIT",
        "pointer_scheme": "physical",
        "host_index": "btree",
        "num_tuples": num_tuples,
        "selectivity": selectivity,
        "num_queries": num_queries,
        "total_results": sum(len(result.locations)
                             for result in batches["hermit"]),
        "hermit_vs_baseline": paired.ratio,
        "hermit_fp_ratio": breakdown.false_positive_ratio,
        "hermit_candidates": breakdown.candidates,
        "trs_leaves": hermit_index.trs_tree.num_leaves,
        "results_agree": all(
            np.array_equal(found.locations, expected.locations)
            for found, expected in zip(batches["hermit"],
                                       batches["baseline"])),
        **paired.as_dict("hermit_seconds", "baseline_seconds"),
    }
