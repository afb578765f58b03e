"""Bit-for-bit gate on the end-to-end benchmark's exact counts.

``benchmarks/e2e/metrics.py::EXACT_COUNTS`` names the per-layer counts that
repeat exactly between two runs of one seed (leaves visited, host ranges,
candidates per result, WAL records, planner misses, shard transport bytes
...).  CI runs four traced smokes (``benchmarks/e2e/run.py --workload <w>
--seconds 1 --trace 1``, one per name in ``WORKLOADS``); this script only
*reads* what they left in ``benchmarks/e2e/out/`` and
compares those counts with the committed ``BENCH_e2e_counts.json`` — a
changed count is a changed algorithm, whatever the clock says::

    python benchmarks/check_e2e_counts.py            # compare
    python benchmarks/check_e2e_counts.py --write    # after an intended change

The file records the NumPy version it was produced under (sort and
reduction order can move a count between releases); CI installs that
version before the smokes, so the gate cannot flake on a NumPy release.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from metrics import EXACT_COUNTS  # noqa: E402

COMMITTED = ROOT / "BENCH_e2e_counts.json"
WORKLOADS = ("mixed_rw", "point_sigmoid", "range_linear", "shard_range")


def observed_counts() -> dict[str, dict[str, float]]:
    """The exact counts of the latest traced run of each smoke workload."""
    counts = {}
    for workload in WORKLOADS:
        path = ROOT / "benchmarks" / "e2e" / "out" / f"{workload}.trace1.json"
        with open(path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)["metrics"]
        counts[workload] = {name: metrics[name]["value"]
                            for name in EXACT_COUNTS if name in metrics}
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true",
                        help="record the observed counts as the new truth")
    args = parser.parse_args(argv)

    observed = observed_counts()
    if args.write:
        with open(COMMITTED, "w", encoding="utf-8") as handle:
            json.dump({"numpy": np.__version__, "counts": observed}, handle,
                      indent=1)
            handle.write("\n")
        print(f"wrote {COMMITTED}")
        return 0

    with open(COMMITTED, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    expected = committed["counts"]
    names = {(workload, name) for counts in (expected, observed)
             for workload in counts for name in counts[workload]}
    changed = [
        f"{workload} {name}: committed "
        f"{expected.get(workload, {}).get(name)!r}, observed "
        f"{observed.get(workload, {}).get(name)!r}"
        for workload, name in sorted(names)
        if expected.get(workload, {}).get(name)
        != observed.get(workload, {}).get(name)
    ]
    if changed:
        print(f"exact e2e counts changed (committed under numpy "
              f"{committed['numpy']}, running {np.__version__}):",
              file=sys.stderr)
        for line in changed:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print(f"exact e2e counts unchanged: {len(names)} counts over "
          f"{len(WORKLOADS)} workloads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
