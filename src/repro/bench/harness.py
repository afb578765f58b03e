"""Experiment harness shared by all benchmark scripts.

Each benchmark under ``benchmarks/`` reproduces one table or figure of the
paper; they all reduce to a handful of primitives implemented here: run a
query batch against one named index of a ``Database`` and measure
throughput + breakdown, sweep a parameter (selectivity, tuple count,
error_bound, noise, number of indexes), and collect memory breakdowns.

The query runners force the named index (``Database.query_with`` /
``query_with_many``), so a Hermit-vs-Baseline comparison runs both
mechanisms through the engine's own two pipelines under its read epoch:
:func:`run_query_batch` the segmented batch pipeline, :func:`run_query_singles`
the single-request one.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.timing import ThroughputResult
from repro.core.lookup import LookupBreakdown
from repro.engine.query import RangePredicate
from repro.workloads.queries import RangeQuery


@dataclass
class QueryBatchResult:
    """Throughput and accumulated breakdown of one query batch."""

    throughput: ThroughputResult
    breakdown: LookupBreakdown
    total_results: int = 0

    @property
    def false_positive_ratio(self) -> float:
        """Fraction of candidate tuples rejected by validation."""
        return self.breakdown.false_positive_ratio


def _predicates(database, table_name: str, index_name: str,
                queries: list[RangeQuery]) -> list[RangePredicate]:
    """The queries as predicates on the named index's column."""
    column = database.catalog.table_entry(table_name).indexes[
        index_name].column
    return [RangePredicate(column, query.low, query.high)
            for query in queries]


def run_query_batch(database, table_name: str, index_name: str,
                    queries: list[RangeQuery]) -> QueryBatchResult:
    """Run range queries through one index and collect throughput + breakdown.

    The batch goes through ``Database.query_with_many`` — one plan group
    in the segmented pipeline the engine serves batches with — which also
    amortises per-call dispatch and clock-read overhead over the batch.
    Garbage is collected before the clock starts, so a generation-2 pause
    owed to earlier allocations does not land inside the timed batch.

    Args:
        database: The :class:`~repro.engine.database.Database` to read.
        table_name: Table the index is on.
        index_name: The index (Hermit, B+-tree, Correlation Map) to force.
        queries: The query batch.
    """
    predicates = _predicates(database, table_name, index_name, queries)
    gc.collect()
    started = time.perf_counter()
    results = database.query_with_many(table_name, index_name, predicates)
    elapsed = time.perf_counter() - started
    return QueryBatchResult(
        throughput=ThroughputResult(operations=len(queries), seconds=elapsed),
        breakdown=results[0].breakdown if results else LookupBreakdown(),
        total_results=sum(len(result.locations) for result in results),
    )


def run_query_singles(database, table_name: str, index_name: str,
                      queries: list[RangeQuery]) -> QueryBatchResult:
    """Run range queries one ``Database.query_with`` at a time.

    The other protocol: the single-request pipeline ``Database.execute``
    serves, whose per-lookup phase shares are what the paper's breakdown
    figures show.  Same arguments and result shape as
    :func:`run_query_batch`, and the same collection before the clock
    starts.
    """
    predicates = _predicates(database, table_name, index_name, queries)
    breakdown = LookupBreakdown()
    total_results = 0
    gc.collect()
    started = time.perf_counter()
    for predicate in predicates:
        result = database.query_with(table_name, index_name, predicate)
        breakdown.merge(result.breakdown)
        total_results += len(result.locations)
    elapsed = time.perf_counter() - started
    return QueryBatchResult(
        throughput=ThroughputResult(operations=len(queries), seconds=elapsed),
        breakdown=breakdown,
        total_results=total_results,
    )


def run_point_batch(database, table_name: str, index_name: str,
                    values: list[float]) -> QueryBatchResult:
    """Run point queries through one index (see :func:`run_query_batch`)."""
    queries = [RangeQuery(value, value) for value in values]
    return run_query_batch(database, table_name, index_name, queries)


@dataclass
class SweepSeries:
    """One labelled series of a parameter sweep (one line of a paper figure)."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one (x, y) point."""
        self.xs.append(float(x))
        self.ys.append(float(y))

    def as_rows(self) -> list[tuple[float, float]]:
        """Return the series as (x, y) rows."""
        return list(zip(self.xs, self.ys))


@dataclass
class FigureData:
    """All series of one reproduced figure, plus free-form notes."""

    name: str
    x_label: str
    y_label: str
    series: dict[str, SweepSeries] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def series_for(self, label: str) -> SweepSeries:
        """Get or create the series with the given label."""
        if label not in self.series:
            self.series[label] = SweepSeries(label)
        return self.series[label]

    def add_point(self, label: str, x: float, y: float) -> None:
        """Append one point to the labelled series."""
        self.series_for(label).add(x, y)

    def ratio(self, numerator: str, denominator: str) -> list[float]:
        """Point-wise ratio between two series (for who-wins checks)."""
        top = self.series[numerator]
        bottom = self.series[denominator]
        return [
            (a / b if b else float("inf"))
            for a, b in zip(top.ys, bottom.ys)
        ]


def insertion_throughput(database, table_name: str, rows: list[dict]) -> ThroughputResult:
    """Measure end-to-end insertion throughput through the database facade.

    Includes primary-index and base-table maintenance, exactly as the paper's
    Figure 22 does.
    """
    started = time.perf_counter()
    for row in rows:
        database.insert(table_name, row)
    elapsed = time.perf_counter() - started
    return ThroughputResult(operations=len(rows), seconds=elapsed)


def construction_time(build_callable, repetitions: int = 1) -> float:
    """Median wall-clock seconds of ``build_callable()`` over ``repetitions``."""
    samples = []
    for _ in range(max(1, repetitions)):
        started = time.perf_counter()
        build_callable()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))
