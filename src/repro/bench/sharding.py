"""Sharded scatter/gather throughput: N shards raced against one shard.

Builds the Synthetic-Linear workload twice behind the sharded facade —
once with ``num_shards`` worker processes, once with a single worker — and
races identical ``execute_many`` range batches through both.  Both
contenders pay the same transport (pickled command batches over a pipe),
so the ratio isolates what sharding actually buys: concurrent per-shard
engine execution plus N-times-smaller per-shard indexes.

The speedup is core-count-bound by construction — on a single-CPU machine
the N worker processes time-slice one core and the ratio sits *below* 1
(same total engine work plus N-way merge overhead).
:func:`sharding_records` therefore emits two records: ``sharding_sanity``
on every machine (results must agree, ratio must clear a
transport-overhead floor) and the gated ≥ 2x ``sharding_parallel`` only
where ``os.cpu_count()`` can seat every shard — elsewhere that record is
marked skipped, with the reason, so the gate knows it was not forgotten.

Correctness inside the race: per-query result counts are checked against
a brute-force numpy scan of the generating dataset, on both contenders —
a wrong merge (lost shard segment, duplicated outlier) shows up as
``results_agree=False``, not as a fast wrong answer.
"""

from __future__ import annotations

import os

import numpy as np

from repro.bench.timing import paired_ratio
from repro.engine.catalog import IndexMethod
from repro.engine.query import QueryRequest, RangePredicate
from repro.sharding import ShardedDatabase, uniform_boundaries
from repro.storage.schema import numeric_schema
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import TABLE_NAME, generate_synthetic


def build_sharded_synthetic(num_shards: int, num_tuples: int,
                            mode: str = "process",
                            seed: int = 42) -> ShardedDatabase:
    """Synthetic-Linear behind a sharded facade, Hermit-indexed on colC.

    Mirrors :func:`repro.workloads.synthetic.load_synthetic` (primary on
    ``colA``, pre-existing B+-tree on ``colB``, Hermit on ``colC``) with
    the rows partitioned uniformly on the ``colA`` key space.
    """
    dataset = generate_synthetic(num_tuples, "linear", noise_fraction=0.01,
                                 seed=seed)
    database = ShardedDatabase(num_shards=num_shards, mode=mode)
    schema = numeric_schema(TABLE_NAME, ["colA", "colB", "colC", "colD"],
                            primary_key="colA")
    boundaries = (uniform_boundaries(0.0, float(num_tuples), num_shards)
                  if num_shards > 1 else None)
    database.create_table(schema, boundaries)
    database.insert_many(TABLE_NAME, dict(dataset.columns))
    database.create_index("idx_colB", TABLE_NAME, "colB",
                          method=IndexMethod.BTREE, preexisting=True)
    database.create_index("idx_colC", TABLE_NAME, "colC",
                          method=IndexMethod.HERMIT, host_column="colB")
    return database


def measure_sharding(num_shards: int, num_tuples: int, batch_size: int,
                     rounds: int, selectivity: float = 1e-3,
                     mode: str = "process", seed: int = 42) -> dict:
    """Race ``num_shards`` workers against one on identical range batches.

    Returns one measurement; ``sharded_vs_single`` is the N-shard speedup
    over the single-shard worker.  Per-query counts are validated against
    a brute-force scan of the generating dataset on both sides.
    """
    dataset = generate_synthetic(num_tuples, "linear", noise_fraction=0.01,
                                 seed=seed)
    targets = dataset.columns["colC"]
    domain = (float(targets.min()), float(targets.max()))
    requests = [
        QueryRequest.of(TABLE_NAME,
                        RangePredicate("colC", query.low, query.high))
        for query in range_queries(domain, selectivity, count=batch_size,
                                   seed=seed)
    ]
    expected_counts = [
        int(np.count_nonzero((targets >= request.predicates[0].low)
                             & (targets <= request.predicates[0].high)))
        for request in requests
    ]

    single = build_sharded_synthetic(1, num_tuples, mode=mode, seed=seed)
    sharded = build_sharded_synthetic(num_shards, num_tuples, mode=mode,
                                      seed=seed)
    results = {}

    def run_sharded() -> None:
        results["sharded"] = sharded.execute_many(requests)

    def run_single() -> None:
        results["single"] = single.execute_many(requests)

    try:
        # Two untimed rounds per side first: the rounds right after a
        # build run cold on either side, and the race is over few rounds.
        for _ in range(2):
            run_sharded()
            run_single()
        paired = paired_ratio(run_sharded, run_single, rounds)
    finally:
        single.close()
        sharded.close()
    return {
        "workload": "synthetic",
        "mechanism": "HERMIT:range",
        "pointer_scheme": "physical",
        "num_shards": num_shards,
        "cpu_count": os.cpu_count() or 1,
        "num_tuples": num_tuples,
        "num_queries": len(requests),
        "total_results": sum(len(r.locations) for r in results["sharded"]),
        "sharded_vs_single": paired.ratio,
        "results_agree": all(
            len(one.locations) == len(many.locations) == expected
            for one, many, expected in zip(results["single"],
                                           results["sharded"],
                                           expected_counts)),
        **paired.as_dict("sharded_seconds", "single_seconds"),
    }


def sharding_records(num_shards: int, num_tuples: int, batch_size: int,
                     rounds: int) -> list[dict]:
    """One race, two records (see the module docstring)."""
    measurement = measure_sharding(num_shards, num_tuples, batch_size, rounds)
    cores = measurement["cpu_count"]
    parallel = ({"measurements": [measurement]} if cores >= num_shards else
                {"skipped": f"{cores} cpus cannot seat {num_shards} shards"})
    return [{"benchmark": "sharding_sanity", "measurements": [measurement]},
            {"benchmark": "sharding_parallel", **parallel}]
