"""Batched query throughput: ``execute_many`` raced against an ``execute`` loop.

The batched read API's contract is that a batch of B requests through
``Database.execute_many`` returns exactly the rows of B per-request
``Database.execute`` calls while amortising everything above the mechanisms — planning (one planner visit
per plan group), candidate probes (one segmented host-index pass), pointer
resolution (one primary pass), validation (one mask pass per predicate
column) and result assembly.  This module builds the Synthetic workload
inside a full :class:`~repro.engine.database.Database` three times — the
target column served by a HERMIT index, a Baseline B+-tree, or a
Correlation Map — and races both APIs on four batch classes:

* ``range``  — selective range predicates on colC (the gated ≥ 3x class);
* ``point``  — point probes on stored colC values;
* ``conjunctive`` — two-column (colC AND colB) conjunctions;
* ``mixed``  — interleaved point and range predicates on colC, which spans
  two plan groups (different selectivity buckets) in one batch.

Every race replays its query list over several interleaved rounds and is
scored by the best round; batch and loop results are compared query by
query, so a batched-executor correctness bug shows up as
``results_agree=False`` rather than a wrong speedup.

It lives in ``repro.bench`` so the standalone benchmark
(``benchmarks/bench_query_throughput.py``) and the tier-1 bench-smoke race
share one implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import generate_synthetic, load_synthetic

BATCH_CLASSES = ("range", "point", "conjunctive", "mixed")
MECHANISM_LABELS = ("HERMIT", "Baseline", "Sorted", "CM")

# CM bucketisation on the Synthetic target domain, matching the appendix
# benchmark's finest setting (bench_fig27_30: CM-2^12 target buckets) — the
# coarser settings over-fetch so heavily that the race spends its whole
# budget validating CM false positives instead of measuring batching.
_CM_TARGET_BUCKET = float(2 ** 12)
_CM_HOST_BUCKET = float(2 ** 12)


@dataclass
class QueryThroughputSetup:
    """One Synthetic database whose target column one mechanism serves."""

    database: Database
    table_name: str
    mechanism: str
    target_domain: tuple[float, float]
    stored_targets: np.ndarray
    num_tuples: int


def build_query_throughput_setup(
    mechanism: str, num_tuples: int,
    pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
    seed: int = 42,
) -> QueryThroughputSetup:
    """Load Synthetic-Linear and index colC with exactly one mechanism.

    The planner then has no rival index on the target column, so the race
    measures the batch amortisation of *that* mechanism's pipeline (the
    pre-existing colB host index still serves the conjunctive class's
    second predicate).
    """
    dataset = generate_synthetic(num_tuples, "linear", noise_fraction=0.01,
                                 seed=seed)
    database = Database(pointer_scheme=pointer_scheme)
    table_name = load_synthetic(database, dataset)
    if mechanism == "HERMIT":
        database.create_index("idx_colC", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
    elif mechanism == "Baseline":
        database.create_index("idx_colC", table_name, "colC",
                              method=IndexMethod.BTREE)
    elif mechanism == "Sorted":
        database.create_index("idx_colC", table_name, "colC",
                              method=IndexMethod.SORTED_COLUMN)
    elif mechanism == "CM":
        database.create_index("idx_colC", table_name, "colC",
                              method=IndexMethod.CORRELATION_MAP,
                              host_column="colB",
                              cm_target_bucket_width=_CM_TARGET_BUCKET,
                              cm_host_bucket_width=_CM_HOST_BUCKET)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}; "
                         f"use one of {MECHANISM_LABELS}")
    targets = dataset.columns["colC"]
    return QueryThroughputSetup(
        database=database, table_name=table_name, mechanism=mechanism,
        target_domain=(float(targets.min()), float(targets.max())),
        stored_targets=targets, num_tuples=num_tuples,
    )


@dataclass
class QueryThroughputMeasurement:
    """Batched-vs-loop throughput of one (mechanism, batch class) pair."""

    batch_class: str
    mechanism: str
    pointer_scheme: str
    num_tuples: int
    selectivity: float
    num_queries: int
    total_results: int
    loop_seconds: float
    batched_seconds: float
    results_agree: bool

    @property
    def loop_kops(self) -> float:
        """Per-query-loop throughput in K queries per second."""
        return self._kops(self.loop_seconds)

    @property
    def batched_kops(self) -> float:
        """Batch-API throughput in K queries per second."""
        return self._kops(self.batched_seconds)

    @property
    def batched_vs_loop(self) -> float:
        """Batch-API speedup over the per-query loop (the gated ratio)."""
        if self.batched_seconds <= 0:
            return float("inf")
        return self.loop_seconds / self.batched_seconds

    def _kops(self, seconds: float) -> float:
        if seconds <= 0:
            return 0.0
        return self.num_queries / seconds / 1e3

    def as_dict(self) -> dict:
        """JSON-ready representation (gated by ``check_regression.py``)."""
        return {
            "workload": "synthetic",
            "mechanism": f"{self.mechanism}:{self.batch_class}",
            "pointer_scheme": self.pointer_scheme,
            "num_tuples": self.num_tuples,
            "selectivity": self.selectivity,
            "num_queries": self.num_queries,
            "total_results": self.total_results,
            "loop_kops": self.loop_kops,
            "batched_kops": self.batched_kops,
            "batched_vs_loop": self.batched_vs_loop,
            "results_agree": self.results_agree,
        }


def _batch_requests(setup: QueryThroughputSetup, batch_class: str,
                    selectivity: float, batch_size: int,
                    seed: int) -> list[QueryRequest]:
    """Build one request batch of the requested class."""
    table_name = setup.table_name
    ranges = range_queries(setup.target_domain, selectivity,
                           count=batch_size, seed=seed)
    if batch_class == "range":
        return [QueryRequest.range(table_name, "colC", q.low, q.high)
                for q in ranges]
    if batch_class == "point":
        rng = np.random.default_rng(seed + 1)
        values = rng.choice(setup.stored_targets, size=batch_size,
                            replace=False)
        return [QueryRequest.point(table_name, "colC", float(v))
                for v in values]
    if batch_class == "conjunctive":
        # colB = 2*colC + 10; anchor the host window on the upper half of
        # the image so the conjunction stays non-empty and the colC side
        # stays the selective one (the planner bench's shape).  The host
        # window is kept at 2x the image — wide enough that the window
        # never collapses to a point, narrow enough that a plan driving
        # through the host index is not dominated by the probe itself
        # (this race measures batch amortisation, not wide-scan walks).
        conjunctions = []
        for target in ranges:
            image_low = 2.0 * target.low + 10.0
            image_high = 2.0 * target.high + 10.0
            host_low = (image_low + image_high) / 2.0
            host_high = host_low + 2.0 * (image_high - image_low)
            conjunctions.append(QueryRequest.conjunctive(table_name, [
                RangePredicate("colC", target.low, target.high),
                RangePredicate("colB", host_low, host_high),
            ]))
        return conjunctions
    if batch_class == "mixed":
        rng = np.random.default_rng(seed + 2)
        values = rng.choice(setup.stored_targets, size=batch_size // 2,
                            replace=False)
        requests = [QueryRequest.range(table_name, "colC", q.low, q.high)
                    for q in ranges[: batch_size - values.size]]
        requests.extend(QueryRequest.point(table_name, "colC", float(v))
                        for v in values)
        rng.shuffle(requests)
        return requests
    raise ValueError(f"unknown batch class {batch_class!r}; "
                     f"use one of {BATCH_CLASSES}")


def measure_batch_class(setup: QueryThroughputSetup, batch_class: str,
                        selectivity: float, batch_size: int,
                        pointer_scheme: PointerScheme, rounds: int = 5,
                        seed: int = 42) -> QueryThroughputMeasurement:
    """Race ``execute_many`` against the ``execute`` loop on one batch class.

    Rounds are interleaved (loop, then batch, per round) and each side is
    scored by its best round, so background load hits both contenders
    equally and the plan cache is warm on both sides after round one.
    """
    database = setup.database
    requests = _batch_requests(setup, batch_class, selectivity, batch_size,
                               seed)

    loop_seconds = float("inf")
    batched_seconds = float("inf")
    loop_results: list = []
    batch_results: list = []
    for _ in range(rounds):
        started = time.perf_counter()
        loop_results = [database.execute(request) for request in requests]
        loop_seconds = min(loop_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        batch_results = database.execute_many(requests)
        batched_seconds = min(batched_seconds,
                              time.perf_counter() - started)

    agree = all(np.array_equal(batched.locations, looped.locations)
                for batched, looped in zip(batch_results, loop_results))
    total_results = sum(len(r.locations) for r in batch_results)
    return QueryThroughputMeasurement(
        batch_class=batch_class,
        mechanism=setup.mechanism,
        pointer_scheme=pointer_scheme.value,
        num_tuples=setup.num_tuples,
        selectivity=selectivity,
        num_queries=len(requests),
        total_results=total_results,
        loop_seconds=loop_seconds,
        batched_seconds=batched_seconds,
        results_agree=agree,
    )


def run_query_throughput_suite(
    num_tuples: int = 60_000, selectivity: float = 1e-3,
    batch_size: int = 256, rounds: int = 5,
    pointer_schemes: tuple[PointerScheme, ...] = (PointerScheme.PHYSICAL,
                                                  PointerScheme.LOGICAL),
    mechanisms: tuple[str, ...] = MECHANISM_LABELS,
    batch_classes: tuple[str, ...] = BATCH_CLASSES,
    seed: int = 42,
) -> list[QueryThroughputMeasurement]:
    """Race every (pointer scheme × mechanism × batch class) combination."""
    measurements: list[QueryThroughputMeasurement] = []
    for pointer_scheme in pointer_schemes:
        for mechanism in mechanisms:
            setup = build_query_throughput_setup(
                mechanism, num_tuples, pointer_scheme=pointer_scheme,
                seed=seed,
            )
            for batch_class in batch_classes:
                measurements.append(measure_batch_class(
                    setup, batch_class, selectivity, batch_size,
                    pointer_scheme, rounds=rounds, seed=seed,
                ))
    return measurements
