"""CI perf-regression gate over the emitted benchmark JSON records.

The ratio benchmarks emit JSON records: ``bench_writepath_vectorized.py``
carries batched-vs-per-row insert speedups, ``bench_planner.py``
planner-vs-manual-plan ratios, and so on per record below.  (Absolute
end-to-end numbers are tracked by ``benchmarks/e2e``, not here.)  This gate
enforces the repo's perf trajectory on every CI run:

* every gated metric must stay >= its floor (``--min-speedup``, default
  1.0, unless ``GATED_METRICS`` pins an explicit per-metric floor — the
  planner ratios use 0.9, i.e. "never slower than 1.1x the best manual
  plan"), and
* every metric must not degrade more than ``--tolerance`` (default 30%)
  relative to the committed baseline ``BENCH_ci_baseline.json``.

Usage::

    # gate current records against the committed baseline
    python benchmarks/check_regression.py --baseline BENCH_ci_baseline.json \
        writepath_ci.json planner_ci.json

    # regenerate the baseline from fresh records (after an intentional change)
    python benchmarks/check_regression.py --write-baseline \
        BENCH_ci_baseline.json writepath_ci.json planner_ci.json

Speedups are ratios of two paths measured back-to-back on the same machine,
so they transfer across hardware far better than absolute throughput —
which is what makes a committed baseline meaningful on CI runners.
"""

from __future__ import annotations

import argparse
import json
import sys

# Which speedup metrics gate which benchmark record.  The floor is an
# explicit per-metric minimum; ``None`` falls back to ``--min-speedup``.
# The planner ratios race two full engine call paths against each other, so
# their floor is 0.9 — "never slower than 1.1x the best manual plan" — while
# the write-path vectorization speedup keeps the hard >= 1.0 floor.
GATED_METRICS = {
    "writepath_vectorized": {"speedup_batched": None},
    "planner": {"speedup_vs_best": 0.9, "speedup_vs_worst": 0.9},
    "planner_point": {"speedup_vs_worst": 0.9},
    # Hermit-vs-baseline throughput ratio on the power-law sensor workload:
    # the adaptive leaf models hold the gap at <= 3x (measured 2.3-2.6x at
    # the CI batch size, i.e. ratios 0.38-0.43), down from ~8x and worse
    # under fixed linear bands — the floor is the acceptance criterion
    # itself and keeps the gap from silently reopening.
    "sensor_fp": {"hermit_vs_baseline": 1.0 / 3.0},
    # Batched query execution: Database.execute_many raced against the
    # per-request Database.execute loop.  The batch API must never
    # lose to the loop on any (mechanism, scheme, class) combination
    # (floor 1.0), and the fully array-native configuration — range
    # batches on the sorted-column path under physical pointers — must
    # hold the >= 3x acceptance target (measured ~5-7x; B+-tree-backed
    # combinations measure ~2.4-3.3x, bounded by per-entry Python leaf
    # walks that batching cannot remove).
    "query_throughput": {"batched_vs_loop": None},
    "query_throughput_range": {"batched_vs_loop": 3.0},
    # B+-tree-backed range batches (Hermit translation + host-index probes
    # under physical pointers): the vectorized TRS batch translation plus
    # the flattened-leaf-level host probe raised this combination from
    # ~2.6x to ~4.4x, and the floor pins the new level.
    "query_throughput_btree_range": {"batched_vs_loop": 4.0},
    # Sharded scatter/gather (bench_sharding.py).  The parallel record is
    # only emitted on machines with enough cores to seat every shard (CI
    # runners: 4 vCPUs) and gates the >= 2x acceptance criterion; the
    # sanity record is emitted everywhere and gates correctness plus a
    # transport-overhead floor.  On one core N time-sliced workers pay
    # merge + pickling overhead with no parallelism to show for it and
    # measure 0.35-0.55x with heavy scheduler noise, so the floor (0.25)
    # only catches the transport becoming a multiple slower — the >= 2x
    # criterion lives entirely in the parallel record.
    "sharding_parallel": {"sharded_vs_single": 2.0},
    "sharding_sanity": {"sharded_vs_single": 0.25},
    # Durability: insert throughput per fsync policy as a ratio of the
    # no-WAL path, plus recovery throughput vs. the live insert path.
    # All four policies measure within ~20% of each other at the CI chunk
    # size (typical best-of-5: ~0.95 off, ~0.85 batch, ~0.8 always,
    # ~0.85 recovery), which makes the ratios noise-dominated — observed
    # run-to-run spread is +-0.15.  The floors catch a qualitative
    # regression (WAL encoding or replay becoming a multiple slower), not
    # small drifts; those are pinned by the 30% baseline tolerance against
    # per-metric-minimum baseline values.
    "durability": {
        "wal_off_ratio": 0.7,
        "wal_batch_ratio": 0.6,
        "wal_always_ratio": 0.5,
        "recovery_vs_insert": 0.5,
    },
    # Serving front end: coalesced sustained QPS over per-call under the
    # same open-loop arrival schedule.  The acceptance demonstration at CI
    # scale is >= 2x (typical best-of-5: 2.0-2.5x), but open-loop runs on
    # shared runners are scheduling-noise-sensitive, so the hard floor is
    # the contract itself — coalescing must never *lose* to per-call —
    # and the 30% baseline tolerance polices the 2x margin.
    "serving": {"coalesced_vs_percall": 1.0},
    # Epoch-keyed result cache raced on vs. off through the same coalescing
    # server.  Under the Zipfian mix (s=1.1, 192 distinct requests) the
    # cache must pay for itself with margin — >= 1.3x sustained QPS is the
    # acceptance floor (measured headroom above it at CI scale).  Under the
    # uniform mix nearly every probe misses, so the record pins miss-path
    # overhead instead: cache-on must hold >= 0.9x of cache-off throughput,
    # i.e. probing + filling + eviction churn never costs more than 10%.
    "serving_result_cache": {"cached_vs_uncached": 1.3},
    "serving_result_cache_uniform": {"cached_vs_uncached": 0.9},
}
# Measurement fields that identify "the same measurement" across runs.
KEY_FIELDS = ("workload", "mechanism", "pointer_scheme", "host_index")


def load_records(path: str) -> list[dict]:
    """Load benchmark JSON records from one file, validating their shape.

    A file holds either a single record or — like the committed baseline —
    a ``{"records": [...]}`` bundle.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload["records"] if "records" in payload else [payload]
    for record in records:
        name = record.get("benchmark")
        if name not in GATED_METRICS:
            raise SystemExit(
                f"{path}: unknown benchmark {name!r}; expected one of "
                f"{sorted(GATED_METRICS)}"
            )
    return records


def measurement_key(record_name: str, measurement: dict) -> tuple:
    """Stable identity of one measurement across benchmark runs."""
    return (record_name,) + tuple(
        measurement.get(field, "-") for field in KEY_FIELDS
    )


def index_measurements(records: list[dict]) -> dict[tuple, dict]:
    """Key → measurement over every record's measurement list."""
    indexed: dict[tuple, dict] = {}
    for record in records:
        for measurement in record["measurements"]:
            indexed[measurement_key(record["benchmark"], measurement)] = (
                measurement
            )
    return indexed


def check(records: list[dict], baseline: dict, min_speedup: float,
          tolerance: float) -> list[str]:
    """Return a list of failure messages (empty when the gate passes)."""
    failures: list[str] = []
    baseline_measurements = index_measurements(baseline.get("records", []))
    for record in records:
        metrics = GATED_METRICS[record["benchmark"]]
        for measurement in record["measurements"]:
            key = measurement_key(record["benchmark"], measurement)
            label = "/".join(str(part) for part in key)
            if not measurement.get("results_agree", True):
                failures.append(f"{label}: the raced paths returned "
                                f"different results")
            reference = baseline_measurements.get(key)
            for metric, metric_floor in metrics.items():
                floor_value = (metric_floor if metric_floor is not None
                               else min_speedup)
                value = measurement.get(metric)
                if value is None:
                    failures.append(f"{label}: record is missing {metric}")
                    continue
                if value < floor_value:
                    failures.append(
                        f"{label}: {metric} {value:.2f}x fell below the "
                        f"{floor_value:.2f}x floor"
                    )
                if reference is not None and metric in reference:
                    floor = (1.0 - tolerance) * reference[metric]
                    if value < floor:
                        failures.append(
                            f"{label}: {metric} {value:.2f}x degraded more "
                            f"than {tolerance:.0%} vs. baseline "
                            f"{reference[metric]:.2f}x (floor {floor:.2f}x)"
                        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("records", nargs="+",
                        help="benchmark JSON records to gate")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to compare against")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write a fresh baseline from the records "
                             "instead of gating")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="hard floor for every gated speedup (default 1.0)")
    parser.add_argument("--tolerance", type=float, default=0.3,
                        help="allowed relative degradation vs. the baseline "
                             "(default 0.3 = 30%%)")
    args = parser.parse_args(argv)

    records = [record for path in args.records
               for record in load_records(path)]

    if args.write_baseline:
        baseline = {"records": records}
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"wrote baseline {args.write_baseline} "
              f"({sum(len(r['measurements']) for r in records)} measurements)")
        return 0

    baseline = {}
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    failures = check(records, baseline, args.min_speedup, args.tolerance)
    if failures:
        print("perf-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    gated = sum(len(record["measurements"]) for record in records)
    print(f"perf-regression gate passed: {gated} measurements, "
          f"min speedup {args.min_speedup:.2f}x, tolerance "
          f"{args.tolerance:.0%} vs. "
          f"{args.baseline or 'no baseline (floor check only)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
