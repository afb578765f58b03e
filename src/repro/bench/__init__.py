"""Benchmark harness: timing (incl. the paired-ratio estimator every gated
ratio goes through), experiment runners, text reporting; the ratio suites
live in their own modules (``durability``, ``sensor_fp``, ``serving``,
``sharding``, ``writepath``)."""

from repro.bench.harness import (
    FigureData,
    QueryBatchResult,
    SweepSeries,
    construction_time,
    insertion_throughput,
    run_point_batch,
    run_query_batch,
    run_query_singles,
)
from repro.bench.report import format_figure, format_memory_report, format_table
from repro.bench.timing import (
    SimulatedClock,
    ThroughputResult,
    paired_ratio,
    scale_factor,
    scaled,
    stopwatch,
)

__all__ = [
    "FigureData",
    "QueryBatchResult",
    "SimulatedClock",
    "SweepSeries",
    "ThroughputResult",
    "construction_time",
    "format_figure",
    "format_memory_report",
    "format_table",
    "insertion_throughput",
    "paired_ratio",
    "run_point_batch",
    "run_query_batch",
    "run_query_singles",
    "scale_factor",
    "scaled",
    "stopwatch",
]
