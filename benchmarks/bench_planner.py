"""Planner benchmark — planner-chosen plans vs. manual plans.

Not a paper figure: this benchmark pins the query planner's contract.  The
planner must (a) pick plans whose end-to-end throughput stays within 1.1x of
the *best* manual single-index plan on range and conjunctive queries, (b) at
least beat the *worst* manual plan everywhere — point lookups included, where
a single probe is a ~10us operation and per-call Python dispatch, not plan
quality, dominates the best-plan ratio — and (c) return exactly the same
rows as every manual plan.

Run as pytest (small scale, correctness + sanity ratios)::

    PYTHONPATH=src python -m pytest benchmarks/bench_planner.py -s

or standalone, emitting a JSON bundle for the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_planner.py \
        --rows 200000 --selectivity 0.005 --output planner.json

The bundle holds two records — ``planner`` (single + conjunctive classes,
gated on ``speedup_vs_best`` and ``speedup_vs_worst``) and ``planner_point``
(gated on ``speedup_vs_worst``) — both checked by
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from repro.bench.planner import PlannerMeasurement, run_planner_suite
from repro.bench.timing import scaled
from repro.storage.identifiers import PointerScheme

SMALL_SCALE_ROWS = 20_000


def format_planner(measurements: list[PlannerMeasurement]) -> str:
    """Plain-text table of one planner suite run."""
    header = (
        f"{'class':<12} {'chosen':<18} {'best manual':<22} {'planner':>10} "
        f"{'best':>10} {'vs best':>8} {'vs worst':>9}  agree"
    )
    lines = [header, "-" * len(header)]
    for m in measurements:
        record = m.as_dict()
        lines.append(
            f"{m.query_class:<12} {m.chosen:<18} {m.best_manual:<22} "
            f"{record['planner_kops']:>9.2f}K "
            f"{record['manual_kops'][m.best_manual]:>9.2f}K "
            f"{m.speedup_vs_best:>7.2f}x {m.speedup_vs_worst:>8.2f}x  "
            f"{m.results_agree}"
        )
    return "\n".join(lines)


@pytest.mark.figure("planner")
def test_planner_matches_manual_plans(benchmark):
    """Small-scale run: every plan agrees and the planner beats the worst."""
    def run():
        return run_planner_suite(num_tuples=scaled(SMALL_SCALE_ROWS),
                                 selectivity=5e-3, num_queries=10)

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_planner(measurements))
    assert all(m.results_agree for m in measurements)
    # At this scale per-query work is small, so only pin a loose floor; the
    # 0.9x acceptance floor applies to the full-scale standalone run.
    assert all(m.speedup_vs_best > 0.3 for m in measurements)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=200_000,
                        help="rows in the Synthetic table (default 200k)")
    parser.add_argument("--selectivity", type=float, default=1e-2,
                        help="range-query selectivity (default 1e-2)")
    parser.add_argument("--queries", type=int, default=20,
                        help="queries per measurement (default 20)")
    parser.add_argument("--scheme", default="physical",
                        choices=["physical", "logical"])
    parser.add_argument("--output", default="bench_planner.json",
                        help="path of the emitted JSON record bundle")
    args = parser.parse_args(argv)

    scheme = (PointerScheme.PHYSICAL if args.scheme == "physical"
              else PointerScheme.LOGICAL)
    measurements = run_planner_suite(
        num_tuples=args.rows, selectivity=args.selectivity,
        num_queries=args.queries, pointer_scheme=scheme,
    )
    print(format_planner(measurements))

    ranged = [m for m in measurements if m.query_class != "point"]
    points = [m for m in measurements if m.query_class == "point"]
    bundle = {
        "records": [
            {
                "benchmark": "planner",
                "rows": args.rows,
                "selectivity": args.selectivity,
                "queries": args.queries,
                "pointer_scheme": args.scheme,
                "measurements": [m.as_dict() for m in ranged],
            },
            {
                "benchmark": "planner_point",
                "rows": args.rows,
                "queries": args.queries,
                "pointer_scheme": args.scheme,
                "measurements": [m.as_dict() for m in points],
            },
        ],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2)
    print(f"\nwrote {args.output}")

    if not all(m.results_agree for m in measurements):
        print("ERROR: planner and manual plans disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
