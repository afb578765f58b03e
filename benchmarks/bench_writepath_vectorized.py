"""Write-path vectorization benchmark — per-row inserts vs. batched ``insert_many``.

Not a paper figure: this benchmark tracks the reproduction's own perf
trajectory on the write side.
The PR that introduced it gave every index a batched write API (sorted merge
into B+-tree leaf runs, grouped hash-bucket appends, ``searchsorted`` merges
into the sorted-column arrays) and every secondary mechanism a
column-oriented ``insert_many``, and rewired ``Database.insert_many`` to
drive them end to end; ``Database.insert`` delegates to the same machinery
with a batch of one, so racing the two paths isolates exactly the per-row
overhead the batching removed.

Run as pytest (small scale, correctness + sanity speedup)::

    PYTHONPATH=src python -m pytest benchmarks/bench_writepath_vectorized.py -s

or standalone at full scale, emitting a JSON record for the trajectory::

    PYTHONPATH=src python benchmarks/bench_writepath_vectorized.py \
        --rows 1000000 --output writepath.json

The acceptance target of the write-path PR: batched ``insert_many`` >= 5x
the per-row scalar loop when inserting 1M rows into an indexed table.
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from repro.bench.timing import scaled
from repro.bench.writepath import (
    WritepathMeasurement,
    run_writepath_suite,
)
from repro.bench.hotpath import WORKLOADS
from repro.storage.identifiers import PointerScheme

SMALL_SCALE_ROWS = 3_000


def format_measurements(measurements: list[WritepathMeasurement]) -> str:
    """Plain-text table of one suite run."""
    header = (
        f"{'workload':<10} {'mechanism':<9} {'base':>9} {'inserted':>9} "
        f"{'scalar':>10} {'batched':>10} {'speedup':>8}  agree"
    )
    lines = [header, "-" * len(header)]
    for m in measurements:
        lines.append(
            f"{m.workload:<10} {m.mechanism:<9} {m.base_rows:>9} "
            f"{m.insert_rows:>9} {m.scalar_kops:>9.2f}K "
            f"{m.batched_kops:>9.2f}K {m.speedup_batched:>7.1f}x  "
            f"{m.results_agree}"
        )
    return "\n".join(lines)


@pytest.mark.figure("writepath")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_writepath_scalar_vs_batched(benchmark, workload):
    """Small-scale run: paths agree and the batched path is not slower."""
    def run():
        return run_writepath_suite(
            workloads=(workload,), insert_rows=scaled(SMALL_SCALE_ROWS),
        )

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_measurements(measurements))
    assert all(m.results_agree for m in measurements)
    # The 5x acceptance target applies to the full-scale standalone run;
    # at this scale just require the batch path not to collapse.
    assert all(m.speedup_batched > 0.5 for m in measurements)


@pytest.mark.figure("writepath")
def test_writepath_logical_pointers_agree(benchmark):
    """The batched write path stays exact under logical pointers."""
    def run():
        return run_writepath_suite(
            workloads=("synthetic",), insert_rows=scaled(SMALL_SCALE_ROWS),
            pointer_scheme=PointerScheme.LOGICAL,
        )

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_measurements(measurements))
    assert all(m.results_agree for m in measurements)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="rows inserted through each path (default 1M)")
    parser.add_argument("--base-rows", type=int, default=None,
                        help="rows pre-loaded before the indexes exist "
                             "(default: rows // 4)")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--scheme", default="physical",
                        choices=["physical", "logical"])
    parser.add_argument("--output", default="bench_writepath_vectorized.json",
                        help="path of the emitted JSON record")
    args = parser.parse_args(argv)

    scheme = (PointerScheme.PHYSICAL if args.scheme == "physical"
              else PointerScheme.LOGICAL)
    measurements = run_writepath_suite(
        workloads=tuple(args.workloads), insert_rows=args.rows,
        base_rows=args.base_rows, pointer_scheme=scheme,
    )
    print(format_measurements(measurements))

    record = {
        "benchmark": "writepath_vectorized",
        "rows": args.rows,
        "base_rows": args.base_rows,
        "pointer_scheme": args.scheme,
        "measurements": [m.as_dict() for m in measurements],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"\nwrote {args.output}")

    if not all(m.results_agree for m in measurements):
        print("ERROR: scalar and batched write paths disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
