"""Batched query throughput — ``execute_many`` vs. the ``execute`` loop.

Not a paper figure: this benchmark pins the batched read API's contract.
``Database.execute_many`` must (a) return exactly the rows of the
equivalent per-request ``Database.execute`` loop, (b) never be slower
than that loop on any (mechanism × pointer scheme × batch class)
combination, (c) reach at
least **3x** the loop on range batches where the access path is
array-native end to end (the sorted-column mechanism under physical
pointers), and (d) reach at least **4x** on the B+-tree-backed Hermit
range path, where the vectorized TRS translation and the host B+-tree's
flattened-leaf-level probe removed the per-entry Python leaf walks that
used to cap it at ~2.5x (see docs/architecture.md "Batched execution").

Run as pytest (small scale, correctness + sanity ratios)::

    PYTHONPATH=src python -m pytest benchmarks/bench_query_throughput.py -s

or standalone, emitting a JSON bundle for the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py \
        --rows 60000 --batch 192 --output query_throughput.json

The bundle holds three records — ``query_throughput_range`` (the gated
≥ 3x array-native demonstration), ``query_throughput_btree_range`` (the
gated ≥ 4x B+-tree-backed Hermit range path: vectorized TRS translation
feeding the host index's flattened-leaf probe) and ``query_throughput``
(everything else, gated ≥ 1.0) — all checked by
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from repro.bench.query_throughput import (
    QueryThroughputMeasurement,
    run_query_throughput_suite,
)
from repro.bench.timing import scaled
from repro.storage.identifiers import PointerScheme

SMALL_SCALE_ROWS = 8_000

# The ≥ 3x acceptance gate: range batches on the fully array-native path.
_RANGE_GATE = ("Sorted", "range", "physical")
# The ≥ 4x acceptance gate: range batches on the B+-tree-backed Hermit
# path under physical pointers — vectorized TRS translation feeding the
# host index's flattened-leaf-level probe.
_BTREE_RANGE_GATE = ("HERMIT", "range", "physical")


def is_range_gated(measurement: QueryThroughputMeasurement) -> bool:
    """Whether a measurement belongs to the gated ≥ 3x range record."""
    return (measurement.mechanism, measurement.batch_class,
            measurement.pointer_scheme) == _RANGE_GATE


def is_btree_range_gated(measurement: QueryThroughputMeasurement) -> bool:
    """Whether a measurement belongs to the gated ≥ 4x btree range record."""
    return (measurement.mechanism, measurement.batch_class,
            measurement.pointer_scheme) == _BTREE_RANGE_GATE


def format_measurements(measurements: list[QueryThroughputMeasurement]) -> str:
    """Plain-text table of one suite run."""
    header = (f"{'scheme':<9} {'mechanism':<9} {'class':<12} "
              f"{'loop':>10} {'batched':>10} {'speedup':>8}  agree")
    lines = [header, "-" * len(header)]
    for m in measurements:
        lines.append(
            f"{m.pointer_scheme:<9} {m.mechanism:<9} {m.batch_class:<12} "
            f"{m.loop_kops:>9.2f}K {m.batched_kops:>9.2f}K "
            f"{m.batched_vs_loop:>7.2f}x  {m.results_agree}"
        )
    return "\n".join(lines)


@pytest.mark.figure("query_throughput")
def test_batched_queries_match_loop(benchmark):
    """Small-scale run: batch and loop agree; the batch never collapses."""
    def run():
        return run_query_throughput_suite(
            num_tuples=scaled(SMALL_SCALE_ROWS), selectivity=5e-3,
            batch_size=48, rounds=3,
            pointer_schemes=(PointerScheme.PHYSICAL,),
        )

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_measurements(measurements))
    assert all(m.results_agree for m in measurements)
    # At this scale per-query work is small; pin a loose floor that still
    # catches the batch path degenerating into a hidden per-query loop.
    assert all(m.batched_vs_loop > 0.5 for m in measurements)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=60_000,
                        help="rows in the Synthetic table (default 60k)")
    parser.add_argument("--selectivity", type=float, default=1e-3,
                        help="range-query selectivity (default 1e-3)")
    parser.add_argument("--batch", type=int, default=192,
                        help="queries per batch (default 192)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved best-of rounds (default 5)")
    parser.add_argument("--output", default="bench_query_throughput.json",
                        help="path of the emitted JSON record bundle")
    args = parser.parse_args(argv)

    measurements = run_query_throughput_suite(
        num_tuples=args.rows, selectivity=args.selectivity,
        batch_size=args.batch, rounds=args.rounds,
    )
    print(format_measurements(measurements))

    range_gated = [m for m in measurements if is_range_gated(m)]
    btree_range_gated = [m for m in measurements if is_btree_range_gated(m)]
    rest = [m for m in measurements
            if not (is_range_gated(m) or is_btree_range_gated(m))]
    bundle = {
        "records": [
            {
                "benchmark": "query_throughput_range",
                "rows": args.rows,
                "selectivity": args.selectivity,
                "batch": args.batch,
                "measurements": [m.as_dict() for m in range_gated],
            },
            {
                "benchmark": "query_throughput_btree_range",
                "rows": args.rows,
                "selectivity": args.selectivity,
                "batch": args.batch,
                "measurements": [m.as_dict() for m in btree_range_gated],
            },
            {
                "benchmark": "query_throughput",
                "rows": args.rows,
                "selectivity": args.selectivity,
                "batch": args.batch,
                "measurements": [m.as_dict() for m in rest],
            },
        ],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2)
    print(f"\nwrote {args.output}")

    if not all(m.results_agree for m in measurements):
        print("ERROR: batched and per-query results disagree",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
