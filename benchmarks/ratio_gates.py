"""The ratio gates: every gated ratio record, from one runner.

Runs the suites under ``repro.bench`` at their CI sizes — each races a
feature against its reference through ``repro.bench.timing.paired_ratio`` —
writes one record bundle for ``check_regression.py`` and appends one stamped
line (git sha, whether ``src`` or ``benchmarks`` had uncommitted changes,
cpu count, python + numpy versions, every gated ratio) to
``BENCH_trajectory.jsonl`` at the repo root, so local and CI runs add up to
a series::

    PYTHONPATH=src python benchmarks/ratio_gates.py --output ratio_gates_ci.json
    python benchmarks/check_regression.py --baseline BENCH_ci_baseline.json \
        ratio_gates_ci.json

After an *intentional* change, regenerate the committed baseline with one
command (it runs everything ``BASELINE_RUNS`` times and keeps each gated
metric's minimum)::

    PYTHONPATH=src python benchmarks/ratio_gates.py \
        --write-baseline BENCH_ci_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from check_regression import GATED_METRICS, index_measurements, minimum_of_runs
from repro.bench.durability import measure_durability
from repro.bench.sensor_fp import measure_sensor_fp
from repro.bench.serving import serving_records
from repro.bench.sharding import sharding_records
from repro.bench.writepath import writepath_measurements

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
BASELINE_RUNS = 3

# Round counts are even so both side orders weigh equally in the median.
CI_SIZES = {
    "writepath": {"insert_rows": 20_000, "rounds": 2},
    # The 48-query batch keeps the ratio's run-to-run variance within a few
    # percent; a smaller one measures mostly Hermit's fixed per-batch TRS
    # translation cost rather than the false-positive gap.
    "sensor_fp": {"num_tuples": 120_000, "num_queries": 48, "rounds": 8},
    "durability": {"rows": 60_000, "rounds": 6},
    "serving": {"num_tuples": 60_000, "num_clients": 64,
                "requests_per_client": 40, "rounds": 6},
    "sharding": {"num_shards": 4, "num_tuples": 60_000, "batch_size": 192,
                 "rounds": 4},
}


def _one(name: str, measurements: list[dict]) -> list[dict]:
    return [{"benchmark": name, "measurements": measurements}]


# suite -> (the records it emits, how to run it at given sizes)
SUITES = {
    "writepath": (("writepath_vectorized",), lambda **sizes: _one(
        "writepath_vectorized", writepath_measurements(**sizes))),
    "sensor_fp": (("sensor_fp",), lambda **sizes: _one(
        "sensor_fp", [measure_sensor_fp(**sizes)])),
    "durability": (("durability",), lambda **sizes: _one(
        "durability", [measure_durability(**sizes)])),
    "serving": (("serving", "serving_result_cache",
                 "serving_result_cache_uniform"), serving_records),
    "sharding": (("sharding_sanity", "sharding_parallel"), sharding_records),
}


def run_suites(selected: list[str], sizes: dict) -> list[dict]:
    """Records of the selected suites; the others are marked skipped."""
    records: list[dict] = []
    for suite, (names, run) in SUITES.items():
        if suite in selected:
            records.extend(run(**sizes[suite]))
        else:
            records.extend({"benchmark": name,
                            "skipped": f"suite {suite!r} not selected"}
                           for name in names)
    return records


def trajectory_line(records: list[dict]) -> dict:
    """One stamped line: where and on what the run happened, and every
    gated ratio it measured.

    ``dirty`` says the run measured uncommitted changes to ``src`` or
    ``benchmarks``, which ``git_sha`` (the commit they sit on) does not
    name.
    """
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src",
                           "benchmarks"], cwd=ROOT, capture_output=True,
                          check=False)
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha.stdout.strip() or "unknown",
        "dirty": diff.returncode != 0,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "metrics": {
            "/".join(map(str, key + (metric,))): measurement[metric]
            for key, measurement in index_measurements(records).items()
            for metric in GATED_METRICS[key[0]]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--suite", action="append", choices=sorted(SUITES),
                        help="run only this suite (repeatable; default all)")
    parser.add_argument("--output", default="ratio_gates.json",
                        help="path of the emitted record bundle")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help=f"run {BASELINE_RUNS} times and write each "
                             f"gated metric's minimum as the new baseline")
    args = parser.parse_args(argv)
    selected = args.suite or list(SUITES)

    runs = []
    for _ in range(BASELINE_RUNS if args.write_baseline else 1):
        records = run_suites(selected, CI_SIZES)
        line = trajectory_line(records)
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        for label, value in line["metrics"].items():
            print(f"{value:8.3f}x  {label}")
        runs.append(records)

    path = args.write_baseline or args.output
    records = minimum_of_runs(runs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"records": records}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
