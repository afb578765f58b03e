"""Metric catalogue and the small statistics the benchmark reports with.

``BENCHMARK.json`` may carry only name / unit / direction / bound per metric,
so everything else the issue asks to be stated — which workloads report a
metric, and which end-to-end metric a layer metric is expected to move — is
stated here, and ``contract()`` derives ``BENCHMARK.json`` from it (the
self-test keeps the two identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# One line each (BENCHMARK.json "why"): what runs, at what size, and which
# layers it is there to expose.  Every table has 200,000 rows.
WORKLOADS = {
    "range_linear": (
        "Paper headline case (Fig. 8/10): 200k rows, linear correlation, "
        "physical pointers, execute_many of 256 ranges at 1e-3; Hermit and "
        "host probe dominate; cache, serving, shards and WAL idle."),
    "point_sigmoid": (
        "One request per call, 70% points / 30% 1e-4 ranges, 200k-row "
        "sigmoid table (358-leaf TRS-Tree), logical pointers: dispatch, "
        "planner, TRS and primary-index resolution dominate."),
    "serve_zipf": (
        "Open loop at 12.5k/25k/50k/200k req/s through Server + 4,096-entry "
        "result cache, Zipf(1.1) over 16,384 requests (4x the cache): the "
        "one workload serving and cache dominate."),
    "mixed_rw": (
        "32 x (insert_many of 500 rows, 256 ranges, some deletes/updates) "
        "+ checkpoint on a WAL-backed 200k-row table, run on 5 fresh "
        "copies, then recover: every structure range_linear only reads is "
        "written."),
    "shard_range": (
        "The range_linear request stream through 2 process shards of 100k "
        "rows: engine work held equal, so pickle + pipe + merge is read off "
        "the difference between the two rows."),
}
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    """One catalogue entry.

    ``bound`` is the relative worsening that counts as a regression (end to
    end only); ``workloads`` lists where the metric is measured — elsewhere
    a layer metric reads 0; ``moves`` names the end-to-end metric and
    workload a layer metric is predicted to move.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    workloads: tuple[str, ...] = ALL
    moves: str = ""


# Every workload reports these; the driver gates them (BENCHMARK.json
# "end_to_end").  The driver takes a metric's spread over ten runs with ten
# different seeds, refuses a benchmark whose spread exceeds the bound, and
# asks for spreads under a third of it, so a bound is the issue's (0.10;
# 0.20 on p99; 0.02 on space) unless ten-seed runs of unchanged code show
# it cannot hold (README, "Noise"):
# * the five timings cannot.  With every call at the least of its replays
#   they spread 2-8% over ten seeds, but for whole runs at a time the
#   reference box is 10-15% slower, replays and all; they sit at the
#   contract's ceiling, three times the widest spread seen, and setup_s
#   must carry the largest bound anyway;
# * index_bytes_per_row and peak_rss_mb can: 0-0.3% and 0-2% over seeds
#   (the table is the same for every seed, datagen.TABLE_SEED).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("read_qps", "req/s", "higher", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_p99_ms", "ms", "lower", 0.25),
    Metric("cpu_us_per_read", "us", "lower", 0.25),
    Metric("index_bytes_per_row", "B/row", "lower", 0.02),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

# End-to-end metrics only one workload can report.  The driver's contract
# wants every "end_to_end" metric from every workload and never 0, and every
# "per_layer" metric from the traced run — but end-to-end numbers come from
# the untraced run only.  So BENCHMARK.json cannot list these: the untraced
# run reports them beside the others (printed, latest.json) and
# --repeat-check holds them to these bounds.  failed_share (must be 0)
# travels as the contract's failed / attempted.
END_TO_END_SINGLE = (
    Metric("max_rate_ok_qps", "req/s", "higher", 0.25, ("serve_zipf",)),
    Metric("write_rows_per_s", "rows/s", "higher", 0.25, ("mixed_rw",)),
    Metric("write_p99_ms", "ms", "lower", 0.25, ("mixed_rw",)),
    Metric("recovery_s", "s", "lower", 0.25, ("mixed_rw",)),
)

RUNGS = ("r1", "r2", "r3", "r4")
_ENGINE = ("range_linear", "point_sigmoid", "serve_zipf", "mixed_rw")
_BATCHED = ("range_linear", "serve_zipf", "mixed_rw")
_SINGLE = ("point_sigmoid",)
_WRITES = ("mixed_rw",)


def _layer(prefix: str, moves: str, workloads: tuple[str, ...],
           *entries: tuple) -> tuple[Metric, ...]:
    """One layer's metrics; an entry may name its own workloads last."""
    return tuple(
        Metric(f"{prefix}.{entry[0]}", entry[1], entry[2], None,
               entry[3] if len(entry) > 3 else workloads, moves)
        for entry in entries)


PER_LAYER = (
    *_layer("serving", "read_p50_ms, max_rate_ok_qps on serve_zipf",
            ("serve_zipf",),
            ("queue_wait_us", "us", "lower"),
            ("exec_us_per_req", "us", "lower"),
            ("fanout_us", "us", "lower"),
            ("mean_batch", "count", "higher"),
            ("batches", "count", "lower"),
            *((f"p50_ms.{r}", "ms", "lower") for r in RUNGS),
            *((f"p99_ms.{r}", "ms", "lower") for r in RUNGS),
            *((f"gen_late_ms.{r}", "ms", "lower") for r in RUNGS),
            *((f"backlog.{r}", "count", "lower") for r in RUNGS)),
    *_layer("cache", "read_qps, cpu_us_per_read on serve_zipf",
            ("serve_zipf",),
            ("hit_ratio", "ratio", "higher"),
            ("probe_us_per_req", "us", "lower"),
            ("fill_us_per_req", "us", "lower"),
            ("lru_evictions", "count", "lower"),
            ("stale_evictions", "count", "lower"),
            ("admission_deferrals", "count", "lower"),
            ("bytes", "B", "lower")),
    *_layer("planner", "read_p50_ms on point_sigmoid", _ENGINE,
            ("plan_us_per_req", "us", "lower", _BATCHED),
            ("plan_us_single", "us", "lower", _SINGLE),
            ("groups_per_batch", "count", "lower", _BATCHED),
            ("misses", "count", "lower"),
            ("replays", "count", "higher")),
    *_layer("database",
            "read_p50_ms on point_sigmoid; read_qps on range_linear", _ENGINE,
            ("self_us_per_req", "us", "lower", _BATCHED),
            ("dispatch_us_single", "us", "lower", _SINGLE)),
    *_layer("executor", "read_qps on range_linear, shard_range", _BATCHED,
            ("self_us_per_req", "us", "lower")),
    *_layer("hermit", "read_qps on range_linear, mixed_rw", ALL,
            ("candidate_us_per_req", "us", "lower", _BATCHED),
            ("candidates_per_result", "ratio", "lower"),
            ("fp_ratio", "ratio", "lower")),
    *_layer("trs",
            "read_p50_ms, cpu_us_per_read on point_sigmoid; write_rows_per_s,"
            " write_p99_ms on mixed_rw; index_bytes_per_row everywhere", ALL,
            ("translate_us_per_req", "us", "lower"),
            ("leaves_visited_per_req", "count", "lower", _ENGINE),
            ("nodes_visited_per_req", "count", "lower", _ENGINE),
            ("host_ranges_per_req", "count", "lower", _ENGINE),
            ("outlier_tids_per_req", "count", "lower", _ENGINE),
            ("leaves", "count", "lower"),
            ("height", "count", "lower"),
            ("outliers", "count", "lower"),
            ("bytes", "B", "lower"),
            ("insert_us_per_row", "us", "lower", _WRITES),
            ("reorganize_ms", "ms", "lower", _WRITES),
            ("reorganized_nodes", "count", "lower", _WRITES)),
    *_layer("index",
            "host probe: read_qps on range_linear, shard_range, mixed_rw; "
            "primary resolve: read_p50_ms on point_sigmoid", ALL,
            ("host_probe_us_per_req", "us", "lower"),
            ("host_entries_per_req", "count", "lower"),
            ("primary_resolve_us_per_req", "us", "lower", _SINGLE),
            ("insert_us_per_row", "us", "lower", _WRITES)),
    *_layer("storage",
            "read_qps on range_linear; write_rows_per_s on mixed_rw", ALL,
            ("validate_us_per_req", "us", "lower"),
            ("validated_slots_per_req", "count", "lower"),
            ("insert_us_per_row", "us", "lower", _WRITES),
            ("table_bytes", "B", "lower")),
    *_layer("sharding",
            "read_qps, read_p50_ms, cpu_us_per_read on shard_range",
            ("shard_range",),
            ("call_ms", "ms", "lower"),
            ("inline_ms", "ms", "lower"),
            ("overhead_ms", "ms", "lower"),
            ("request_bytes_per_req", "B", "lower"),
            ("reply_bytes_per_req", "B", "lower"),
            ("children_cpu_us_per_req", "us", "lower")),
    *_layer("durability",
            "write_rows_per_s, write_p99_ms, recovery_s on mixed_rw", _WRITES,
            ("log_us_per_row", "us", "lower"),
            ("wal_bytes_per_row", "B", "lower"),
            ("wal_bytes_per_user_byte", "ratio", "lower"),
            ("wal_records", "count", "lower"),
            ("fsyncs", "count", "lower"),
            ("checkpoint_ms", "ms", "lower"),
            ("checkpoint_bytes", "B", "lower"),
            ("recover_load_s", "s", "lower"),
            ("recover_rebuild_s", "s", "lower"),
            ("recover_replay_s", "s", "lower"),
            ("records_replayed", "count", "lower")),
    *_layer("process", "diagnostic", ALL,
            ("gen2_collections", "count", "lower"),
            ("trace_overhead_share", "ratio", "lower"),
            ("warmup_ratio", "ratio", "lower")),
)

# Counts that must repeat exactly between two runs of one seed.
EXACT_COUNTS = (
    "index_bytes_per_row", "trs.leaves_visited_per_req",
    "trs.nodes_visited_per_req", "trs.host_ranges_per_req",
    "trs.outlier_tids_per_req", "hermit.candidates_per_result",
    "durability.wal_bytes_per_row", "durability.wal_records",
    "durability.fsyncs", "sharding.request_bytes_per_req",
    "sharding.reply_bytes_per_req", "planner.misses", "planner.replays",
    "planner.groups_per_batch",
)


# serve_zipf batches form by arrival time, so its planner and cache counts
# are close between runs but not identical.
INEXACT_ON = ("serve_zipf",)


def contract(run_seconds: int) -> dict:
    """The content of ``BENCHMARK.json``."""
    def entry(metric: Metric, bounded: bool) -> dict:
        fields = {"name": metric.name, "unit": metric.unit,
                  "better": metric.better}
        if bounded:
            fields["bound"] = metric.bound
        return fields

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [entry(metric, True) for metric in END_TO_END],
        "per_layer": [entry(metric, False) for metric in PER_LAYER],
    }


# ------------------------------------------------------------- statistics

# Interference on the shared reference box is one-sided: it only ever makes a
# call slower (for seconds at a time the box runs ~40% slower, and single
# calls are preempted for milliseconds).  So a timed call is never measured
# once.  Closed-loop workloads issue the *same* calls several times over —
# the same request stream replayed, or the same DML schedule run on a fresh
# copy of the database — and a call counts at the least of its identical
# replays (``least_per_call``); rates, medians and tails are then taken over
# the calls.  What the program does on every replay — a rebuild, a
# collection, a flush tied to the operation sequence — stays in every one of
# them and so in the least; what hits one replay and not the next is the
# box.  Where replays are not identical call by call (the open loop, whose
# batches form by arrival time; CPU read per pass), the statistic is taken
# per pass and the median of the least fifth of the passes is reported
# (``quiet``).  README.md has the measurements behind both choices.
QUIET_SHARE = 0.2


def quiet(costs) -> np.ndarray:
    """Indices of the least fifth of ``costs`` (at least one)."""
    costs = np.asarray(costs, dtype=np.float64)
    keep = max(1, round(QUIET_SHARE * costs.size))
    return np.argsort(costs, kind="stable")[:keep]


def median_summary(values) -> dict:
    """Median, quartiles and count of per-repetition values."""
    values = np.asarray(values, dtype=np.float64)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"value": float(median), "q1": float(q1), "q3": float(q3),
            "n": int(values.size)}


def quiet_summary(values, lower_is_quiet: bool = True) -> dict:
    """``median_summary`` of the quietest fifth of per-pass values, ranked
    by the values themselves; the median over all passes for contrast."""
    values = np.asarray(list(values), dtype=np.float64)
    chosen = quiet(values if lower_is_quiet else -values)
    return {**median_summary(values[chosen]), "of": int(values.size),
            "median_of_all": float(np.median(values))}


def least_per_call(replays) -> np.ndarray:
    """Each call at the least of its identical replays (rows = replays)."""
    return np.min(np.stack(replays), axis=0)


def tail_percentile(count: int) -> float:
    """p99, or the highest percentile with >= 10 samples beyond it."""
    if count >= 1000:
        return 99.0
    return max(50.0, 100.0 * (1.0 - 10.0 / count)) if count > 20 else 50.0


def latency_summary(seconds: np.ndarray) -> tuple[dict, dict]:
    """(median, tail) of call latencies, in milliseconds."""
    millis = np.asarray(seconds, dtype=np.float64) * 1e3
    q1, median, q3 = np.percentile(millis, [25, 50, 75])
    tail_at = tail_percentile(millis.size)
    p50 = {"value": float(median), "q1": float(q1), "q3": float(q3),
           "n": int(millis.size)}
    tail = {"value": float(np.percentile(millis, tail_at)),
            "n": int(millis.size), "percentile": tail_at}
    return p50, tail


def read_latency_summary(replays: list[np.ndarray]) -> tuple[dict, dict]:
    """``read_p50_ms`` and ``read_p99_ms`` over calls, each call at the
    least of its replays; the same statistic over every sample of every
    replay, pooled, travels beside each for contrast."""
    p50, tail = latency_summary(least_per_call(replays))
    p50_of_all, tail_of_all = latency_summary(np.concatenate(replays))
    p50.update(replays=len(replays), of_all=p50_of_all["value"])
    tail.update(replays=len(replays), of_all=tail_of_all["value"],
                percentile_of_all=tail_of_all["percentile"])
    return p50, tail
