"""CI perf-regression gate over the ratio records of ``ratio_gates.py``.

A ratio is gated here only where the ratio *is* the contract — WAL on vs
off, cache on vs off, coalesced vs per-call, Hermit vs the complete index,
N shards vs one, batched vs per-row writes.  Absolute throughput, latency
and memory are gated by ``benchmarks/e2e`` (``BENCHMARK.json``), not here.
Every gated value is a median of paired per-round ratios taken back to back
on one machine (``repro.bench.timing.paired_ratio``), which is what makes a
committed baseline meaningful across CI runners.  The gate fails when

* a gated metric is below its floor (``GATED_METRICS``),
* a metric degraded more than ``TOLERANCE`` against the committed
  ``BENCH_ci_baseline.json``,
* the two raced sides disagreed (``results_agree``), or
* a measurement the baseline holds, or a whole gated record, is missing
  from the run without a stated reason — so retiring a gate is an explicit
  edit of the baseline and of ``GATED_METRICS``, never a silent omission.

Usage::

    python benchmarks/ratio_gates.py --output ratio_gates_ci.json
    python benchmarks/check_regression.py --baseline BENCH_ci_baseline.json \
        ratio_gates_ci.json
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

MIN_SPEEDUP = 1.0   # floor of a metric whose GATED_METRICS entry is None
TOLERANCE = 0.3     # allowed relative degradation against the baseline

# Record name -> gated metric -> floor (None: MIN_SPEEDUP).
GATED_METRICS = {
    # One insert_many must never lose to the per-row insert loop.  Stays a
    # ratio gate until a write-heavy e2e workload gates rows/s absolutely.
    "writepath_vectorized": {"speedup_batched": None},
    # Hermit-vs-baseline throughput ratio on the power-law sensor workload:
    # the adaptive leaf models hold the gap at <= 3x (ratio 0.70-0.74 since
    # the flat TRS-Tree), down from ~8x and worse under fixed linear bands —
    # the floor is the acceptance criterion itself and keeps the gap from
    # silently reopening.
    "sensor_fp": {"hermit_vs_baseline": 1.0 / 3.0},
    # Sharded scatter/gather.  The parallel record is only emitted on
    # machines with enough cores to seat every shard (CI runners: 4 vCPUs)
    # and gates the >= 2x acceptance criterion; the sanity record is
    # emitted everywhere and gates correctness plus a transport-overhead
    # floor.  On too few cores N time-sliced workers pay merge + pickling
    # overhead with no parallelism to show for it, with heavy scheduler
    # noise, so the floor (0.25) only catches the transport becoming a
    # multiple slower.
    "sharding_parallel": {"sharded_vs_single": 2.0},
    "sharding_sanity": {"sharded_vs_single": 0.25},
    # Durability: insert throughput per fsync policy as a fraction of the
    # no-WAL path, plus recovery throughput vs. the live insert path.  All
    # four run within ~20% of each other at the CI chunk size, so the
    # ratios are noise-dominated; the floors catch a qualitative regression
    # (WAL encoding or replay becoming a multiple slower), small drifts are
    # pinned by the baseline tolerance.
    "durability": {
        "wal_off_ratio": 0.7,
        "wal_batch_ratio": 0.6,
        "wal_always_ratio": 0.5,
        "recovery_vs_insert": 0.5,
    },
    # Coalesced sustained QPS over per-call under the same open-loop
    # arrival schedule.  The demonstration at CI scale is >= 2x, but
    # open-loop runs on shared runners are scheduling-noise-sensitive, so
    # the hard floor is the contract itself — coalescing must never *lose*
    # — and the baseline tolerance polices the margin.
    "serving": {"coalesced_vs_percall": 1.0},
    # Result cache on vs. off.  Under the Zipfian mix (s=1.1, 192 distinct
    # requests, through the server) the cache must pay for itself with
    # margin; under the uniform mix nearly every probe misses, so the
    # record pins miss-path overhead instead: probing + doorkeeper
    # bookkeeping never costs more than 10%.
    "serving_result_cache": {"cached_vs_uncached": 1.3},
    "serving_result_cache_uniform": {"cached_vs_uncached": 0.9},
}
# Ratio records whose two sides were both production paths, and the
# absolute e2e gate (BENCHMARK.json) that replaced each.
RETIRED = {
    "planner": "read_qps / cpu_us_per_read on point_sigmoid",
    "planner_point": "read_qps / cpu_us_per_read on point_sigmoid",
    "query_throughput": "read_qps / cpu_us_per_read on range_linear",
    "query_throughput_range": "read_qps / cpu_us_per_read on range_linear",
    "query_throughput_btree_range":
        "read_qps / cpu_us_per_read on range_linear",
}
# Measurement fields that identify "the same measurement" across runs.
KEY_FIELDS = ("workload", "mechanism", "pointer_scheme", "host_index")


def load_records(path: str) -> list[dict]:
    """Load a ``{"records": [...]}`` bundle, validating the record names."""
    with open(path, "r", encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    for record in records:
        name = record.get("benchmark")
        if name in RETIRED:
            raise SystemExit(
                f"{path}: {name!r} is a retired ratio gate; it is gated "
                f"absolutely by benchmarks/e2e ({RETIRED[name]})")
        if name not in GATED_METRICS:
            raise SystemExit(
                f"{path}: unknown benchmark {name!r}; expected one of "
                f"{sorted(GATED_METRICS)}")
    return records


def index_measurements(records: list[dict]) -> dict[tuple, dict]:
    """(record name, key fields...) → measurement, skipped records aside."""
    return {
        (record["benchmark"],) + tuple(measurement.get(field, "-")
                                       for field in KEY_FIELDS): measurement
        for record in records
        for measurement in record.get("measurements", ())
    }


def check(records: list[dict], baseline_records: list[dict],
          min_speedup: float = MIN_SPEEDUP,
          tolerance: float = TOLERANCE) -> list[str]:
    """Return a list of failure messages (empty when the gate passes)."""
    failures: list[str] = []
    current = index_measurements(records)
    skipped = {record["benchmark"] for record in records
               if record.get("skipped")}
    emitted = {key[0] for key in current}
    for name in sorted(set(GATED_METRICS) - emitted - skipped):
        failures.append(f"{name}: record neither emitted nor skipped "
                        f"with a reason")
    reference = index_measurements(baseline_records)
    for key in reference:
        if key not in current and key[0] not in skipped:
            failures.append(f"{'/'.join(map(str, key))}: in the baseline "
                            f"but missing from the run")
    for key, measurement in current.items():
        label = "/".join(map(str, key))
        if not measurement.get("results_agree", True):
            failures.append(f"{label}: the raced paths returned "
                            f"different results")
        for metric, metric_floor in GATED_METRICS[key[0]].items():
            floor = metric_floor if metric_floor is not None else min_speedup
            value = measurement.get(metric)
            if value is None:
                failures.append(f"{label}: record is missing {metric}")
                continue
            if value < floor:
                failures.append(f"{label}: {metric} {value:.2f}x fell below "
                                f"the {floor:.2f}x floor")
            before = reference.get(key, {}).get(metric)
            if before is not None and value < (1.0 - tolerance) * before:
                failures.append(
                    f"{label}: {metric} {value:.2f}x degraded more than "
                    f"{tolerance:.0%} vs. baseline {before:.2f}x "
                    f"(floor {(1.0 - tolerance) * before:.2f}x)")
    return failures


def minimum_of_runs(runs: list[list[dict]]) -> list[dict]:
    """Baseline records: the first run's, every gated metric lowered to its
    minimum over all runs.

    A single lucky run would set a floor above what the same code honestly
    measures, and the next CI run would fail with no real regression.
    """
    records = copy.deepcopy(runs[0])
    merged = index_measurements(records)
    for later in runs[1:]:
        for key, measurement in index_measurements(later).items():
            for metric in GATED_METRICS[key[0]]:
                merged[key][metric] = min(merged[key][metric],
                                          measurement[metric])
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("records", nargs="+",
                        help="record bundles written by ratio_gates.py")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to compare against")
    args = parser.parse_args(argv)

    records = [record for path in args.records
               for record in load_records(path)]
    baseline = load_records(args.baseline) if args.baseline else []
    failures = check(records, baseline)
    for record in records:
        if record.get("skipped"):
            print(f"skipped {record['benchmark']}: {record['skipped']}")
    if failures:
        print("perf-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"perf-regression gate passed: {len(index_measurements(records))} "
          f"measurements, tolerance {TOLERANCE:.0%} vs. "
          f"{args.baseline or 'no baseline (floor check only)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
