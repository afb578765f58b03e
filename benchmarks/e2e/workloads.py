"""The five workloads: set-up, untraced replays, traced replay.

Every workload talks to the engine through its public API only and gets its
inputs from ``datagen``.  Op counts are constants scaled by ``--seconds``
(the defaults fill about ten seconds of timed calls per workload on the
2-core reference box), never durations, so a seed always issues exactly the
same operations.

Noise control, applied identically to every workload:

* a fresh process per workload (``run.py`` starts one);
* ``gc.collect(); gc.freeze()`` after set-up — otherwise a ~130 ms gen-2
  pass over the set-up object graph lands at random in a timed window;
* one discarded warm-up inside set-up (flat-view amortisation debt and the
  plan cache make the first calls the slowest);
* identical work, several times.  The reference box runs ~40% slower for
  seconds at a time and preempts single calls for milliseconds, and both
  only ever add time.  So a closed-loop workload replays one seeded request
  stream ``replays`` times (``mixed_rw``: runs one seeded DML schedule on
  ``replicas`` fresh copies of the database), every call counts at the
  least of its identical replays, and rates, medians and tails are taken
  over the calls (``metrics.least_per_call``; README, "Noise").  The open
  loop cannot replay call by call — its batches form by arrival time — so
  it reads each statistic per pass and reports the median of the least
  fifth of the passes (``metrics.quiet``).  ``write_p99_ms`` pools every
  call of the run;
* requests are built, and answers checked, outside the timed windows, and
  results are dropped as soon as they are timed unless sampled for the
  oracle (every ``SAMPLE_EVERY``-th call of the timed replays; every call
  once more in a pass that is not timed).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import resource
import shutil
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.cache.result_cache import ResultCacheConfig
from repro.durability.config import DurabilityConfig, FsyncPolicy
from repro.durability.recovery import recover
from repro.engine import database as database_module
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.index.base import KeyRange
from repro.serving.server import Server
from repro.sharding.sharded import ShardedDatabase
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

from e2e import datagen
from e2e.datagen import TABLE
from e2e.metrics import (PER_LAYER, RUNGS, latency_summary, least_per_call,
                         median_summary, quiet, quiet_summary,
                         read_latency_summary, tail_percentile)
from e2e.oracle import Oracle
from e2e.trace import Recorder, Window

SETUPS = 3
TRACE_REPLAYS = 5
SAMPLE_EVERY = 50
BATCH = 256
TARGET, HOST = "colC", "colB"
HERMIT_INDEX = "idx_colC"


@dataclass(frozen=True)
class Params:
    """What one run is given: seed, size, time budget and where to write."""

    seed: int
    seconds: float
    rows: int
    out_dir: Path

    def scaled(self, count_at_ten_seconds: float, floor: int) -> int:
        return max(floor, round(count_at_ten_seconds * self.seconds / 10.0))


# ------------------------------------------------------------ process tree

_TICKS = os.sysconf("SC_CLK_TCK")


def _child_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def children_cpu_seconds() -> float:
    """CPU of the live children (the shard workers).

    ``RUSAGE_CHILDREN`` only counts children that already exited, so live
    workers are read from ``/proc/<pid>/stat`` (utime + stime, which tick
    at 10 ms: good over a replay, useless over one call).
    """
    total = 0.0
    for pid in _child_pids():
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def tree_peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus the high-water mark of children."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in _child_pids():
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


class Quiesced:
    """A timed window: collect garbage first, then count the process's
    CPU and any full collection that still lands inside."""

    def __init__(self, workload: "Workload") -> None:
        self.workload = workload
        self.cpu_seconds = self.children_cpu_seconds = 0.0

    def __enter__(self) -> "Quiesced":
        gc.collect()
        self._gen2 = gen2_collections()
        self._children = children_cpu_seconds()
        self._own = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        own = time.process_time() - self._own
        self.children_cpu_seconds = children_cpu_seconds() - self._children
        self.cpu_seconds = own + self.children_cpu_seconds
        self.workload.gen2_in_windows += gen2_collections() - self._gen2


# ----------------------------------------------------------------- helpers

def make_requests(lows: np.ndarray, highs: np.ndarray) -> list[QueryRequest]:
    return [QueryRequest.range(TABLE, TARGET, low, high)
            for low, high in zip(lows.tolist(), highs.tolist())]


def load(database, columns: dict, **create_table_kwargs) -> list[int]:
    """The benchmark's schema: B+-tree on the host, Hermit on the target.

    Works on ``Database`` and ``ShardedDatabase`` alike (same DDL surface).
    """
    schema = numeric_schema(TABLE, datagen.COLUMNS, primary_key="colA")
    database.create_table(schema, **create_table_kwargs)
    locations = database.insert_many(TABLE, columns)
    database.create_index("idx_colB", TABLE, HOST, method=IndexMethod.BTREE,
                          preexisting=True)
    database.create_index(HERMIT_INDEX, TABLE, TARGET,
                          method=IndexMethod.HERMIT, host_column=HOST)
    return locations


def hermit_of(database: Database):
    return database.catalog.table_entry(TABLE).indexes[HERMIT_INDEX].mechanism


def index_bytes_per_row(*databases: Database) -> float:
    """The paper's space claim: bytes of the *new* index per live row."""
    new_bytes = sum(db.memory_report().components.get("new_indexes", 0)
                    for db in databases)
    return new_bytes / sum(db.table(TABLE).num_rows for db in databases)


def distinct_breakdowns(results) -> list:
    """Members of one plan group share a breakdown object: count it once."""
    return list({id(result.breakdown): result.breakdown
                 for result in results}.values())


@dataclass
class Repetition:
    """One timed replay: per-call wall and CPU of this process, plus the
    CPU its shard workers (if any) spent over the whole replay."""

    latencies: np.ndarray
    cpu: np.ndarray
    requests: int
    children_cpu_seconds: float = 0.0

    @property
    def wall(self) -> float:
        return float(self.latencies.sum())

    @property
    def cpu_seconds(self) -> float:
        return float(self.cpu.sum()) + self.children_cpu_seconds


def read_metrics(replays: list[Repetition]) -> dict:
    """The four read metrics of a closed-loop workload.

    ``replays`` issued the same calls; each call counts at the least of its
    replays, in wall and in CPU (the shard workers' CPU, which only a whole
    replay can resolve, at its least replay).  The median over whole
    replays travels beside each value for contrast.
    """
    p50, tail = read_latency_summary([rep.latencies for rep in replays])
    requests = replays[0].requests
    wall = float(least_per_call([rep.latencies for rep in replays]).sum())
    cpu = (float(least_per_call([rep.cpu for rep in replays]).sum())
           + min(rep.children_cpu_seconds for rep in replays))
    return {
        "read_qps": {
            "value": requests / wall, "replays": len(replays),
            "median_of_replays": float(np.median(
                [rep.requests / rep.wall for rep in replays]))},
        "read_p50_ms": p50,
        "read_p99_ms": tail,
        "cpu_us_per_read": {
            "value": cpu / requests * 1e6, "replays": len(replays),
            "median_of_replays": float(np.median(
                [rep.cpu_seconds / rep.requests * 1e6 for rep in replays]))},
    }


class Phases:
    """Sums of ``QueryResult.breakdown`` fields over a traced replay."""

    def __init__(self) -> None:
        self.trs = self.host = self.primary = self.base = 0.0
        self.candidates = self.results = 0

    def add(self, results) -> None:
        for item in distinct_breakdowns(results):
            self.trs += item.trs_seconds
            self.host += item.host_index_seconds
            self.primary += item.primary_index_seconds
            self.base += item.base_table_seconds
            self.candidates += item.candidates
            self.results += item.results

    @property
    def seconds(self) -> float:
        return self.trs + self.host + self.primary + self.base


class TrsCounts:
    """Counts read off the ``TRSBatchLookupResult`` objects lookups return."""

    def __init__(self) -> None:
        self.queries = self.leaves = self.nodes = 0
        self.host_ranges = self.outlier_tids = self.host_entries = 0

    def lookup(self, batch) -> None:
        self.queries += batch.num_queries
        self.leaves += int(batch.leaves_visited.sum())
        self.nodes += int(batch.nodes_visited.sum())
        self.host_ranges += int(batch.host_lows.size)
        self.outlier_tids += int(batch.outlier_tids.size)

    def host_probe(self, segmented) -> None:
        self.host_entries += int(segmented[0].size)


@dataclass
class Replay:
    """One traced pass over a repetition's inputs, and what it saw."""

    repetition: Repetition | None = None
    window: Window | None = None
    phases: Phases = field(default_factory=Phases)
    counts: TrsCounts = field(default_factory=TrsCounts)


def install_engine_spans(recorder: Recorder, database: Database,
                         counts: TrsCounts) -> None:
    """Wrap the public callables of each layer on ``database``'s live objects."""
    entry = database.catalog.table_entry(TABLE)
    hermit = entry.indexes[HERMIT_INDEX].mechanism
    wrap = recorder.wrap
    for method in ("execute", "execute_many", "insert_many", "delete",
                   "update", "checkpoint", "close"):
        wrap(database, method, f"database.{method}")
    wrap(database.planner, "plan", "planner.plan")
    wrap(database.planner, "plan_many", "planner.plan_many")
    wrap(database_module, "execute_plan_many", "executor.execute_plan_many")
    wrap(hermit, "candidate_tids_many", "hermit.candidate_tids_many")
    wrap(hermit, "insert_many", "hermit.insert_many")
    wrap(hermit, "reorganize", "hermit.reorganize")
    wrap(hermit.trs_tree, "lookup_many", "trs.lookup_many", counts.lookup)
    wrap(hermit.trs_tree, "insert_many", "trs.insert_many")
    wrap(hermit.host_index, "range_search_segmented",
         "index.host.range_search_segmented", counts.host_probe)
    wrap(hermit.host_index, "insert_many", "index.host.insert_many")
    wrap(entry.primary_index, "search_many_segmented",
         "index.primary.search_many_segmented")
    wrap(entry.primary_index, "insert_many", "index.primary.insert_many")
    wrap(entry.table, "in_range_mask", "storage.in_range_mask")
    wrap(entry.table, "insert_many", "storage.insert_many")
    if database.result_cache is not None:
        wrap(database.result_cache, "get_many", "cache.get_many")
        wrap(database.result_cache, "put_many", "cache.put_many")
    if database.durability is not None:
        wrap(database.durability, "log_insert_many",
             "durability.log_insert_many")
        wrap(database.durability, "checkpoint", "durability.checkpoint")


def structure_metrics(*databases: Database) -> dict:
    """Shape of the TRS-Tree(s) and analytic sizes, from public members."""
    trees = [hermit_of(database).trs_tree for database in databases]
    return {
        "trs.leaves": sum(tree.num_leaves for tree in trees),
        "trs.height": max(tree.height for tree in trees),
        "trs.outliers": sum(tree.num_outliers for tree in trees),
        "trs.bytes": sum(tree.memory_bytes() for tree in trees),
        "storage.table_bytes": sum(
            database.memory_report().components.get("table", 0)
            for database in databases),
    }


def layer_times(replay: Replay) -> dict:
    """The read waterfall of one replay, in microseconds per request.

    Batched calls are split by span self time.  Calls that took the
    one-request path (``Database.execute``) cross no wrapped batch callable
    below the planner, so their four paper phases are taken from
    ``QueryResult.breakdown`` instead and the remainder of the call is
    ``database.dispatch_us_single``.
    """
    window, phases = replay.window, replay.phases
    own, total, calls = (window.self_seconds(), window.total_seconds(),
                         window.calls())
    per_request = 1e6 / replay.repetition.requests
    singles = calls.get("database.execute", 0)

    def self_us(span: str) -> float:
        return own.get(span, 0.0) * per_request

    def phase_us(span: str, phase_seconds: float) -> float:
        return phase_seconds * per_request if singles else self_us(span)

    return {
        "planner.plan_us_per_req": 0.0 if singles else (
            self_us("planner.plan_many") + self_us("planner.plan")),
        "planner.plan_us_single": (
            total.get("planner.plan", 0.0) / singles * 1e6 if singles
            else 0.0),
        "database.self_us_per_req": self_us("database.execute_many"),
        "database.dispatch_us_single": (
            (total["database.execute"] - total.get("planner.plan", 0.0)
             - phases.seconds) / singles * 1e6 if singles else 0.0),
        "executor.self_us_per_req": self_us("executor.execute_plan_many"),
        "hermit.candidate_us_per_req": self_us("hermit.candidate_tids_many"),
        "trs.translate_us_per_req": phase_us("trs.lookup_many", phases.trs),
        "index.host_probe_us_per_req": phase_us(
            "index.host.range_search_segmented", phases.host),
        "index.primary_resolve_us_per_req": phase_us(
            "index.primary.search_many_segmented", phases.primary),
        "storage.validate_us_per_req": phase_us("storage.in_range_mask",
                                                phases.base),
        "cache.probe_us_per_req": self_us("cache.get_many"),
        "cache.fill_us_per_req": self_us("cache.put_many"),
    }


def layer_counts(phases: Phases, counts: TrsCounts, calls: dict,
                 requests: int) -> dict:
    """Work done per request, from what the public API handed back."""
    values = {
        "planner.groups_per_batch": (
            calls.get("executor.execute_plan_many", 0)
            / max(calls.get("database.execute_many", 0), 1)),
        "hermit.candidates_per_result":
            phases.candidates / max(phases.results, 1),
        "hermit.fp_ratio": ((phases.candidates - phases.results)
                            / max(phases.candidates, 1)),
        "storage.validated_slots_per_req": phases.candidates / requests,
        "index.host_entries_per_req": (
            counts.host_entries / requests if counts.host_entries
            else phases.candidates / requests),
    }
    if counts.queries:
        per_query = 1.0 / counts.queries
        values.update({
            "trs.leaves_visited_per_req": counts.leaves * per_query,
            "trs.nodes_visited_per_req": counts.nodes * per_query,
            "trs.host_ranges_per_req": counts.host_ranges * per_query,
            "trs.outlier_tids_per_req": counts.outlier_tids * per_query,
        })
    return values


# ---------------------------------------------------------------- workload

class Workload:
    """Shared life cycle; subclasses fill in build / untraced / traced."""

    name = ""
    kind = "linear"
    scheme = PointerScheme.PHYSICAL
    replays = 12
    setups = SETUPS

    def __init__(self, params: Params) -> None:
        self.params = params
        self.attempted = 0
        self.failed = 0
        self.calls_made = 0
        self.gen2_in_windows = 0
        self.errors: list[str] = []
        self.checks: list[str] = []
        self.oracle = Oracle()
        self.database: Database | None = None
        self.warmup_per_call = 0.0
        self.setup_seconds: list[float] = []

    # -- life cycle

    def set_up(self, times: int) -> None:
        """Build ``times`` times, keeping the last one."""
        for _ in range(times):
            self.rebuild()

    def rebuild(self) -> None:
        """One timed set-up, in place of the previous one if there was one."""
        if self.setup_seconds:
            gc.unfreeze()
            self.close()
            gc.collect()
        started = perf_counter()
        self.oracle = Oracle()
        self.build()
        self.setup_seconds.append(perf_counter() - started)
        gc.collect()
        gc.freeze()

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.database = None

    def run_repetition(self, number: int, check: str = "sample",
                       on_results=None) -> Repetition:
        """Time stream ``number``'s fixed inputs (closed-loop workloads)."""
        raise NotImplementedError

    def untraced(self) -> dict:
        """Stream 1, ``replays`` times over, then once more untimed with
        every answer checked."""
        replays = [self.run_repetition(1) for _ in range(self.replays)]
        self.run_repetition(1, "all")
        return {**read_metrics(replays), **self.common()}

    def traced(self, recorder: Recorder) -> dict:
        values, _ = self.traced_reads(
            recorder, lambda check, hook: self.run_repetition(1, check, hook))
        return values

    def closed_loop(self, call, arguments: list, requests_per_call: int,
                    check: str, on_results, verify_call, as_results=None,
                    ) -> Repetition:
        """One thread, next call only after the previous one returned.

        Only ``call(argument)`` sits between the two wall-clock reads, and
        those between the two reads of this process's CPU clock.
        ``verify_call(index, results)`` checks one call's answers: sampled
        calls are kept and checked after the loop; with ``check == "all"``
        every call is checked as soon as it returns, which keeps nothing in
        memory but disturbs the next call — such a pass is not a timed one.
        ``as_results`` turns a call's return value into a result list when
        it is not one already.
        """
        latencies = np.empty(len(arguments))
        cpu = np.empty(len(arguments))
        kept: list[tuple[int, list]] = []
        process_time = time.process_time
        with Quiesced(self) as window:
            for index, argument in enumerate(arguments):
                cpu_started = process_time()
                started = perf_counter()
                try:
                    results = call(argument)
                except Exception:  # noqa: BLE001 - a failed call is data
                    results = None
                    self.record_error(requests_per_call,
                                      traceback.format_exc())
                latencies[index] = perf_counter() - started
                cpu[index] = process_time() - cpu_started
                if results is None:
                    continue
                if as_results is not None:
                    results = as_results(results)
                if check == "all":
                    verify_call(index, results)
                elif self.sampled(check):
                    kept.append((index, results))
                if on_results is not None:
                    on_results(results)
        for index, results in kept:
            verify_call(index, results)
        requests = len(arguments) * requests_per_call
        self.attempted += requests
        return Repetition(latencies, cpu, requests,
                          window.children_cpu_seconds)

    # -- bookkeeping

    def record_error(self, requests: int, text: str) -> None:
        """A raised call fails every request it carried.

        ``text`` is ``traceback.format_exc()`` taken inside the ``except``
        clause; outside it there is no exception left to format.
        """
        self.failed += requests
        if len(self.errors) < 5:
            self.errors.append(text)

    def verify(self, low: float, high: float, locations) -> None:
        if not self.oracle.check(low, high, locations):
            self.failed += 1

    def check(self, holds: bool, message: str) -> None:
        if not holds:
            self.checks.append(message)

    def sampled(self, check: str) -> bool:
        """Whether this call's answers go to the oracle."""
        self.calls_made += 1
        return check == "all" or (check == "sample"
                                  and self.calls_made % SAMPLE_EVERY == 0)

    def common(self, *databases: Database) -> dict:
        """End-to-end metrics every workload reports the same way."""
        return {
            "setup_s": median_summary(self.setup_seconds),
            "index_bytes_per_row": {
                "value": index_bytes_per_row(*(databases or (self.database,)))},
            "peak_rss_mb": {"value": tree_peak_rss_mib()},
        }

    # -- traced replay shared by the engine-direct read workloads

    def traced_reads(self, recorder: Recorder, run) -> tuple[dict, Replay]:
        """Replay one stream ``TRACE_REPLAYS`` times plain and traced, in
        turn, after one untimed pass in which every answer is checked.

        ``run(check, hook)`` times the stream and returns the repetition;
        ``hook`` is handed each call's results.  The layer metrics are read
        off the quietest traced pass, the tracing overhead off the quietest
        pass of each kind.  Planner counts are those of the first traced
        pass, so they repeat exactly.
        """
        run("all", None)
        gen2_before = self.gen2_in_windows
        plain, replays, planner = [], [], []
        for _ in range(TRACE_REPLAYS):
            plain.append(run("none", None))
            replay = Replay()
            install_engine_spans(recorder, self.database, replay.counts)
            first = recorder.mark()
            planner.append(self.database.planner_cache_stats())
            try:
                replay.repetition = run("none", replay.phases.add)
            finally:
                recorder.unwrap_all()
            planner.append(self.database.planner_cache_stats())
            replay.window = recorder.window(first)
            replays.append(replay)
        best_plain = min(plain, key=lambda rep: rep.wall)
        best = min(replays, key=lambda replay: replay.repetition.wall)
        self.batch_counts(best.counts)
        values = layer_times(best)
        values.update(layer_counts(best.phases, best.counts,
                                   best.window.calls(),
                                   best.repetition.requests))
        values.update(structure_metrics(self.database))
        values.update({
            "planner.misses": planner[1].misses - planner[0].misses,
            "planner.replays": planner[1].replays - planner[0].replays,
            "process.gen2_collections": self.gen2_in_windows - gen2_before,
            "process.trace_overhead_share":
                best.repetition.wall / best_plain.wall - 1.0,
            "process.warmup_ratio": self.warmup_per_call / (
                best_plain.wall / best_plain.latencies.size),
        })
        covered = (sum(best.window.self_seconds().values())
                   / best.repetition.wall)
        self.check(covered >= 0.85,
                   f"self times cover {covered:.2%} of the traced call wall")
        return values, best

    def batch_counts(self, counts: TrsCounts) -> None:
        """Hook for workloads whose traced calls return no TRS batch counts."""


# ------------------------------------------------------------ range_linear

class RangeLinear(Workload):
    """Closed loop, one thread: ``execute_many`` on batches of 256 ranges."""

    name = "range_linear"
    selectivity = 1e-3
    calls_at_ten_seconds = 64.0
    warmup_calls = 16

    def build(self) -> None:
        columns = datagen.table_columns(self.params.rows, self.kind)
        self.database = Database(pointer_scheme=self.scheme)
        self.oracle.insert(load(self.database, columns), columns[TARGET])
        self.warm_up()

    def client(self):
        """The object whose ``execute_many`` the client calls."""
        return self.database

    @property
    def calls(self) -> int:
        return self.params.scaled(self.calls_at_ten_seconds, 2)

    def warm_up(self) -> None:
        """Stream 0, cut short: enough to build flat views and plans."""
        calls = min(self.calls, self.warmup_calls)
        self.warmup_per_call = (
            self.run_repetition(0, "none", calls=calls).wall / calls)

    def stream(self, number: int, calls: int | None = None):
        lows, highs = datagen.range_requests(
            self.params.seed, number, (calls or self.calls) * BATCH,
            self.selectivity)
        requests = make_requests(lows, highs)
        batches = [requests[start:start + BATCH]
                   for start in range(0, len(requests), BATCH)]
        return lows, highs, batches

    def run_repetition(self, number: int, check: str = "sample",
                       on_results=None, execute_many=None,
                       calls: int | None = None) -> Repetition:
        """Time one stream's batches; check sampled answers afterwards."""
        lows, highs, batches = self.stream(number, calls)

        def verify_call(index: int, results) -> None:
            for position, result in enumerate(results, index * BATCH):
                self.verify(lows[position], highs[position], result.locations)

        return self.closed_loop(
            execute_many or self.client().execute_many, batches, BATCH,
            check, on_results, verify_call)

    def traced(self, recorder: Recorder) -> dict:
        values, best = self.traced_reads(
            recorder, lambda check, hook: self.run_repetition(1, check, hook))
        self.check_against_breakdown(best)
        return values

    def check_against_breakdown(self, replay: Replay) -> None:
        """Spans must tell the same story as the program's own breakdown.

        TRS and primary index have a wrapped callable of their own.  The
        host phase the program times is everything ``candidate_tids_many``
        does after the TRS lookup.  The base-table phase it times spans the
        validation mask *and* the executor's bound-repeat / segment-filter
        around it, which have no callable to wrap — so the mask span must
        fit inside it and, together with the executor's self time, cover it.
        """
        total = replay.window.total_seconds()
        own, phases = replay.window.self_seconds(), replay.phases

        def agree(label: str, spans: float, program: float) -> None:
            scale = max(spans, program)
            self.check(scale < 1e-4 or abs(spans - program) <= 0.15 * scale,
                       f"{label}: spans {spans:.6f}s vs breakdown "
                       f"{program:.6f}s differ by more than 15%")

        trs = total.get("trs.lookup_many", 0.0)
        agree("TRS-Tree", trs, phases.trs)
        agree("host index",
              total.get("hermit.candidate_tids_many", 0.0) - trs, phases.host)
        agree("primary index",
              total.get("index.primary.search_many_segmented", 0.0),
              phases.primary)
        mask = total.get("storage.in_range_mask", 0.0)
        executor = own.get("executor.execute_plan_many", 0.0)
        self.check(mask <= 1.15 * phases.base <= 1.15 * (mask + executor),
                   f"base table: mask span {mask:.6f}s, executor self "
                   f"{executor:.6f}s vs breakdown {phases.base:.6f}s")


# ----------------------------------------------------------- point_sigmoid

class PointSigmoid(Workload):
    """Closed loop, one thread: ``Database.execute``, one request per call."""

    name = "point_sigmoid"
    kind = "sigmoid"
    scheme = PointerScheme.LOGICAL
    point_share = 0.7
    selectivity = 1e-4
    requests_at_ten_seconds = 2500.0
    replays = 30

    def build(self) -> None:
        columns = datagen.table_columns(self.params.rows, self.kind)
        self.stored = columns[TARGET]
        self.database = Database(pointer_scheme=self.scheme)
        self.oracle.insert(load(self.database, columns), columns[TARGET])
        self.warmup_per_call = (self.run_repetition(0, "none").wall
                                / self.calls)

    @property
    def calls(self) -> int:
        return self.params.scaled(self.requests_at_ten_seconds, 100)

    def stream(self, repetition: int):
        lows, highs = datagen.point_and_range_requests(
            self.params.seed, repetition, self.calls, self.stored,
            self.point_share, self.selectivity)
        return lows, highs, make_requests(lows, highs)

    def run_repetition(self, number: int, check: str = "sample",
                       on_results=None) -> Repetition:
        lows, highs, requests = self.stream(number)
        return self.closed_loop(
            self.database.execute, requests, 1, check, on_results,
            lambda index, results: self.verify(
                lows[index], highs[index], results[0].locations),
            as_results=lambda result: (result,))

    def batch_counts(self, counts: TrsCounts) -> None:
        """Counts for the predicates the one-request path translated.

        ``Database.execute`` translates through ``TRSTree.lookup``, which
        returns no batch counts; ask the batched translation for the same
        predicates once, outside any timing.
        """
        if counts.queries:
            return
        lows, highs, _ = self.stream(1)
        counts.lookup(hermit_of(self.database).trs_tree.lookup_many(
            [KeyRange(low, high)
             for low, high in zip(lows.tolist(), highs.tolist())]))


# -------------------------------------------------------------- serve_zipf

@dataclass
class Rung:
    """One open-loop pass: ``count`` requests offered at ``rate`` per second."""

    rate: float
    latencies: np.ndarray
    lateness: np.ndarray
    completed_per_second: float
    second_half_ratio: float
    backlog: int
    failures: int
    cpu_seconds: float
    batches: int


class TimingProxy:
    """Stands where the ``Server`` expects its database; times each batch."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self.batches: list[tuple[float, float, int]] = []

    def execute_many(self, requests):
        started = perf_counter()
        results = self._database.execute_many(requests)
        self.batches.append((started, perf_counter(), len(requests)))
        return results

    def __getattr__(self, name: str):
        return getattr(self._database, name)


class _Refused:
    """Future of a request the server refused to accept."""

    def result(self, timeout=None):
        raise RuntimeError("request refused at submit")

    def add_done_callback(self, callback) -> None:
        callback(self)


class ServeZipf(Workload):
    """Open loop through ``Server`` + result cache at four fixed rates.

    One issuing thread (this one) submits on a fixed schedule and never
    waits for answers; one collector thread consumes the futures in issue
    order.  Latency runs from the *scheduled* send time, so a stalled
    generator or a queued request both count against the system.  The
    ladder r1..r4 is offered in passes, ``passes[k]`` of them reaching rung
    k: r2 (where latency and CPU are read) and r4 (throughput) get the most,
    since each statistic is read per pass and the median of the least fifth
    of the passes is what is reported; ``max_rate_ok`` judges each rung by
    its median pass.

    Every pass gets a ``Server`` of its own, closed as soon as its last
    request is submitted.  That starts each pass from the same coalescing
    window, and it is the documented way to flush: at the seed a request can
    be left in the server's queue with no timer armed (README, "Findings"),
    and only ``close()`` — or 1,024 more arrivals — gets it executed.
    """

    name = "serve_zipf"
    rates = (12_500.0, 25_000.0, 50_000.0, 200_000.0)
    rung_seconds_at_ten = 0.25
    passes = (3, 13, 3, 13)
    pool_size = 16_384
    exponent = 1.1
    selectivity = 2e-4
    limit_p99_ms, limit_p50_ms, limit_completion = 100.0, 10.0, 0.97
    replay_batch = 64
    replay_stream = 1000

    def build(self) -> None:
        columns = datagen.table_columns(self.params.rows, self.kind)
        pool = min(self.pool_size, self.params.rows // 2)
        self.database = Database(
            pointer_scheme=self.scheme,
            result_cache=ResultCacheConfig(max_entries=max(pool // 4, 16)))
        self.oracle.insert(load(self.database, columns), columns[TARGET])
        self.pool_lows, self.pool_highs = datagen.request_pool(
            self.params.seed, pool, columns[TARGET], self.selectivity)
        self.pool = make_requests(self.pool_lows, self.pool_highs)
        warm = self.run_rung(self.database, 1, stream=0, check="none")
        self.warmup_p50 = float(np.median(warm.latencies))

    def rung_count(self, rung: int) -> int:
        seconds = self.rung_seconds_at_ten * self.params.seconds / 10.0
        return max(64, round(self.rates[rung] * seconds))

    def draws(self, stream: int, count: int) -> np.ndarray:
        return datagen.zipf_draws(self.params.seed, stream, count,
                                  len(self.pool), self.exponent)

    def run_rung(self, database, rung: int, stream: int,
                 check: str = "sample", stamps: dict | None = None) -> Rung:
        """Offer one rung once to a fresh server over ``database``.

        ``stamps`` (traced rung only) receives the actual send times and a
        completion stamp taken on the resolving thread.
        """
        rate, count = self.rates[rung], self.rung_count(rung)
        draws = self.draws(stream, count)
        pool = self.pool
        requests = [pool[index] for index in draws.tolist()]
        # Preallocated; the collector drops each future once it is read, so
        # the generator's own heap stays flat through the rung.
        futures: list = [None] * count
        sent = np.zeros(count)
        done = np.zeros(count)
        kept: list[tuple[int, object]] = []
        failures = [0]
        resolved = np.zeros(count) if stamps is not None else None
        every = SAMPLE_EVERY if check == "sample" else 1

        def collect() -> None:
            position = 0
            while position < count:
                future = futures[position]
                if future is None:
                    time.sleep(0.0002)
                    continue
                try:
                    result = future.result(timeout=30.0)
                except Exception:  # noqa: BLE001 - refused, failed, timed out
                    result = None
                    failures[0] += 1
                    self.record_error(1, traceback.format_exc())
                done[position] = perf_counter()
                if (result is not None and check != "none"
                        and position % every == 0):
                    kept.append((position, result.locations))
                futures[position] = None
                position += 1

        def stamp(position: int, _future) -> None:
            resolved[position] = perf_counter()

        collector = threading.Thread(target=collect, name="e2e-collector")
        interval = 1.0 / rate
        with Quiesced(self) as window, Server(database) as server:
            submit = server.submit
            collector.start()
            start = perf_counter() + 0.005
            for position in range(count):
                due = start + position * interval
                now = perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = perf_counter()
                sent[position] = now
                try:
                    future = submit(requests[position])
                except Exception:  # noqa: BLE001 - a refused request
                    future = _Refused()
                if resolved is not None:
                    future.add_done_callback(partial(stamp, position))
                futures[position] = future
            server.close()
            collector.join()
        self.attempted += count
        served = server.stats()

        scheduled = start + np.arange(count) * interval
        end = start + count * interval
        for position, locations in kept:
            index = int(draws[position])
            self.verify(self.pool_lows[index], self.pool_highs[index],
                        locations)
        if stamps is not None:
            stamps.update(sent=sent, resolved=resolved)
        in_second_half = np.count_nonzero((done > (start + end) / 2.0)
                                          & (done <= end))
        return Rung(
            rate=rate, latencies=done - scheduled, lateness=sent - scheduled,
            completed_per_second=count / (float(done.max()) - start),
            second_half_ratio=in_second_half / (count - count // 2),
            backlog=int(np.count_nonzero(done > end)),
            failures=failures[0], cpu_seconds=window.cpu_seconds,
            batches=served.batches)

    def ladder(self, passes: tuple[int, ...]) -> list[list[Rung]]:
        """Passes over r1..r4, ``passes[k]`` of them offering rung k; the
        last pass of each rung fully checked.  Indexed [rung][pass]."""
        rungs: list[list[Rung]] = [[] for _ in self.rates]
        for number in range(max(passes)):
            for rung, wanted in enumerate(passes):
                if number < wanted:
                    rungs[rung].append(self.run_rung(
                        self.database, rung,
                        stream=1 + number * len(self.rates) + rung,
                        check="all" if number == wanted - 1 else "sample"))
        return rungs

    @staticmethod
    def quiet_latencies(passes: list[Rung]) -> np.ndarray:
        """Latencies pooled over the rung's quietest passes."""
        chosen = quiet([item.latencies.mean() for item in passes])
        return np.concatenate([passes[index].latencies for index in chosen])

    def max_rate_ok(self, rungs: list[list[Rung]]) -> float:
        """Highest offered rate that met every limit without a backlog.

        A rung is judged by its median pass — median over the passes of
        each pass's p99, p50 and second-half completion ratio — so neither
        one lucky nor one unlucky pass decides it.
        """
        best = 0.0
        for passes in rungs:
            p50, p99 = np.median(
                [np.percentile(item.latencies, [50, 99]) for item in passes],
                axis=0) * 1e3
            kept_up = np.median([item.second_half_ratio for item in passes])
            if (p99 <= self.limit_p99_ms and p50 <= self.limit_p50_ms
                    and kept_up >= self.limit_completion
                    and not any(item.failures for item in passes)):
                best = max(best, passes[0].rate)
        return best

    def untraced(self) -> dict:
        """Throughput at r4; latency and CPU per request at r2, per pass."""
        rungs = self.ladder(self.passes)
        at_r2, count = rungs[1], self.rung_count(1)
        tail_at = tail_percentile(count)
        return {
            "read_qps": quiet_summary(
                (item.completed_per_second for item in rungs[-1]),
                lower_is_quiet=False),
            "read_p50_ms": quiet_summary(
                np.median(item.latencies) * 1e3 for item in at_r2),
            "read_p99_ms": {**quiet_summary(
                np.percentile(item.latencies, tail_at) * 1e3
                for item in at_r2), "percentile": tail_at},
            "cpu_us_per_read": quiet_summary(
                item.cpu_seconds / count * 1e6 for item in at_r2),
            "max_rate_ok_qps": {"value": self.max_rate_ok(rungs)},
            **self.common(),
        }

    def traced(self, recorder: Recorder) -> dict:
        cache_before = self.database.result_cache_info()
        rungs = self.ladder((2,) * len(self.rates))
        cache_after = self.database.result_cache_info()
        values: dict = {}
        for label, passes in zip(RUNGS, rungs):
            p50, p99 = np.percentile(self.quiet_latencies(passes),
                                     [50, 99]) * 1e3
            values[f"serving.p50_ms.{label}"] = float(p50)
            values[f"serving.p99_ms.{label}"] = float(p99)
            values[f"serving.gen_late_ms.{label}"] = float(
                min(item.lateness.mean() for item in passes) * 1e3)
            values[f"serving.backlog.{label}"] = min(item.backlog
                                                     for item in passes)
        batches = sum(item.batches for passes in rungs for item in passes)
        requests = sum(item.latencies.size for passes in rungs
                       for item in passes)
        probes = ((cache_after.hits + cache_after.misses)
                  - (cache_before.hits + cache_before.misses))
        values.update({
            "serving.batches": batches,
            "serving.mean_batch": requests / batches,
            "cache.hit_ratio": (cache_after.hits - cache_before.hits) / probes,
            "cache.lru_evictions": (cache_after.lru_evictions
                                    - cache_before.lru_evictions),
            "cache.stale_evictions": (cache_after.stale_evictions
                                      - cache_before.stale_evictions),
            "cache.admission_deferrals": (cache_after.admission_deferrals
                                          - cache_before.admission_deferrals),
            "cache.bytes": cache_after.bytes,
        })
        values.update(self.serving_waterfall())
        layers, _ = self.traced_reads(recorder, self.replay)
        values.update(layers)
        # The warm-up was an open-loop rung, so compare like with like.
        values["process.warmup_ratio"] = self.warmup_p50 / float(
            np.median(self.quiet_latencies(rungs[1])))
        return values

    def replay(self, check: str, hook) -> Repetition:
        """An r2-sized stream straight into ``execute_many``, one thread.

        Fixed batches of ``replay_batch`` stand in for the coalesced ones.
        Every pass draws a stream of its own: replaying one stream would
        find all of it in the result cache the second time, and the point
        of this workload is hits and misses side by side.
        """
        size = self.replay_batch
        count = self.rung_count(1) // size * size
        self.replay_stream += 1
        draws = self.draws(self.replay_stream, count).tolist()
        requests = [self.pool[index] for index in draws]
        def verify_call(number: int, results) -> None:
            for index, result in zip(draws[number * size:], results):
                self.verify(self.pool_lows[index], self.pool_highs[index],
                            result.locations)

        return self.closed_loop(
            self.database.execute_many,
            [requests[start:start + size] for start in range(0, count, size)],
            size, check, hook, verify_call)

    def serving_waterfall(self) -> dict:
        """r2 through a server whose database is a timing proxy.

        With one worker, batches execute in submission order, so request i
        belongs to the batch whose cumulative size first exceeds i.  Read
        off the quietest of ``TRACE_REPLAYS`` rungs.
        """
        best: dict | None = None
        for number in range(TRACE_REPLAYS):
            proxy = TimingProxy(self.database)
            stamps: dict = {}
            self.run_rung(proxy, 1, stream=500 + number, check="none",
                          stamps=stamps)
            starts, ends, sizes = (np.array(column)
                                   for column in zip(*proxy.batches))
            owner = np.searchsorted(np.cumsum(sizes),
                                    np.arange(sizes.sum()), side="right")
            found = {
                "serving.queue_wait_us": float(
                    (starts[owner] - stamps["sent"]).mean() * 1e6),
                "serving.exec_us_per_req": float(
                    (ends - starts).sum() / sizes.sum() * 1e6),
                "serving.fanout_us": float(
                    (stamps["resolved"] - ends[owner]).mean() * 1e6),
            }
            if best is None or sum(found.values()) < sum(best.values()):
                best = found
        return best


# ---------------------------------------------------------------- mixed_rw

@dataclass
class Step:
    """One iteration of ``mixed_rw``: its calls, timed one by one."""

    read_seconds: float = 0.0
    read_cpu: float = 0.0
    insert_seconds: float = 0.0
    write_latencies: list = field(default_factory=list)
    wal_bytes: int = 0

    def repetition(self) -> Repetition:
        return Repetition(np.array([self.read_seconds]),
                          np.array([self.read_cpu]), BATCH)


class MixedRW(Workload):
    """Writes beside reads on a WAL-backed database, then recovery.

    One thread alternates ``insert_many`` (``insert_rows`` rows) →
    ``execute_many`` (256 ranges) → every ``dml_every``-th iteration
    ``dml_count`` deletes and as many updates, for ``iterations``
    iterations, with ``checkpoint()`` and ``HermitIndex.reorganize()`` once
    after iteration ``checkpoint_after``.  The database grows as it goes, so
    iterations are no repetitions of one another; instead the whole seeded
    schedule runs ``replicas`` times, each on a database set up afresh, and
    iteration k counts at the least of its ``replicas`` identical runs
    (those set-ups are the run's ``setup_s`` samples).  After the last
    replica: ``close()``, ``recover()`` and a check that every acknowledged
    row is readable.  Flush policy: fsync BATCH, every 64 records — stated
    here, identical on every run.
    """

    name = "mixed_rw"
    selectivity = 1e-3
    setups = 1
    replicas = 5
    iterations_at_ten_seconds = 32.0
    warmup_iterations = 2
    insert_rows = 500
    dml_every = 10
    dml_count = 50
    recovery_tiles = 64
    scratch: Path | None = None

    def durability_config(self) -> DurabilityConfig:
        return DurabilityConfig(directory=str(self.directory),
                                fsync=FsyncPolicy.BATCH, fsync_interval=64)

    def build(self) -> None:
        self.scratch = self.params.out_dir / f"tmp-{os.getpid()}"
        self.directory = self.scratch / f"wal-{len(self.setup_seconds)}"
        columns = datagen.table_columns(self.params.rows, self.kind)
        self.database = Database(pointer_scheme=self.scheme,
                                 durability=self.durability_config())
        self.oracle.insert(load(self.database, columns), columns[TARGET])
        self.next_key = self.params.rows
        self.iteration = 0
        warm = [self.run_step("none") for _ in range(self.warmup_iterations)]
        self.warmup_per_call = float(np.mean(
            [step.read_seconds for step in warm]))

    def close(self) -> None:
        if self.database is not None:
            self.database.close()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
        super().close()

    @property
    def iterations(self) -> int:
        return self.params.scaled(self.iterations_at_ten_seconds, 12)

    @property
    def checkpoint_after(self) -> int:
        return self.iterations * 2 // 3

    def timed_write(self, step: Step, call, *args) -> object:
        started = perf_counter()
        try:
            result = call(*args)
        except Exception:  # noqa: BLE001 - a failed call is a data point
            result = None
            self.record_error(1, traceback.format_exc())
        step.write_latencies.append(perf_counter() - started)
        self.attempted += 1
        return result

    def run_step(self, check: str = "sample", on_results=None) -> Step:
        """insert_many → execute_many → (every 10th) deletes and updates."""
        step = Step()
        gc.collect()
        gen2_before = gen2_collections()
        self.iteration += 1
        seed, database = self.params.seed, self.database
        rows = datagen.insert_batch(seed, self.iteration, self.insert_rows,
                                    self.next_key)
        self.next_key += self.insert_rows
        wal_before = database.durability_stats().wal_bytes
        locations = self.timed_write(step, database.insert_many, TABLE, rows)
        step.wal_bytes = database.durability_stats().wal_bytes - wal_before
        step.insert_seconds = step.write_latencies[-1]
        if locations is not None:
            self.oracle.insert(locations, rows[TARGET])

        lows, highs = datagen.mixed_read_requests(seed, self.iteration, BATCH,
                                                  self.selectivity)
        requests = make_requests(lows, highs)
        cpu_before = time.process_time()
        started = perf_counter()
        try:
            results = database.execute_many(requests)
        except Exception:  # noqa: BLE001 - a failed call is a data point
            results = None
            self.record_error(BATCH, traceback.format_exc())
        step.read_seconds = perf_counter() - started
        step.read_cpu = time.process_time() - cpu_before
        self.attempted += BATCH
        if results is not None:
            # The oracle moves with the next write, so check right away.
            if self.sampled(check):
                for low, high, result in zip(lows, highs, results):
                    self.verify(low, high, result.locations)
            if on_results is not None:
                on_results(results)

        if self.iteration % self.dml_every == 0:
            deletes, updates, targets = datagen.victims(
                seed, self.iteration, self.dml_count, self.dml_count)
            for rank in deletes:
                location = self.oracle.live_location(rank)
                self.timed_write(step, database.delete, TABLE, location)
                self.oracle.delete(location)
            for rank, target in zip(updates, targets.tolist()):
                location = self.oracle.live_location(rank)
                host = float(datagen.correlate("linear", np.float64(target)))
                self.timed_write(step, database.update, TABLE, location,
                                 {TARGET: target, HOST: host})
                self.oracle.update(location, target)
        self.gen2_in_windows += gen2_collections() - gen2_before
        return step

    def checkpoint_and_reorganize(self, step: Step) -> dict:
        """The schedule's one stall: what it cost and what it left on disk."""
        self.timed_write(step, self.database.checkpoint)
        started = perf_counter()
        rebuilt = hermit_of(self.database).reorganize()
        return {
            "checkpoint_s": step.write_latencies[-1],
            "reorganize_s": perf_counter() - started,
            "rebuilt": rebuilt,
            "checkpoint_bytes": sum(
                path.stat().st_size for path in self.directory.iterdir()
                if path.name.startswith("checkpoint-")),
        }

    def run_replica(self, check: str,
                    traced_step=None) -> tuple[list[Step], dict]:
        """The schedule once, on the database as set up: ``iterations``
        steps, one checkpoint + reorganize.

        ``traced_step(number)``, when given, runs the even-numbered steps
        in place of ``run_step`` (the traced run's hook).
        """
        steps: list[Step] = []
        stall: dict = {}
        for number in range(1, self.iterations + 1):
            if traced_step is not None and number % 2 == 0:
                steps.append(traced_step(number))
            else:
                steps.append(self.run_step(check))
            if number == self.checkpoint_after:
                stall = self.checkpoint_and_reorganize(steps[-1])
        return steps, stall

    def recover_and_check(self) -> float:
        """close → recover → every acknowledged row must be readable.

        The whole target domain is tiled with ranges, so the answers add up
        to exactly the live rows.  ``self.database`` becomes the recovered
        database.
        """
        self.database.close()
        started = perf_counter()
        recovered = recover(self.durability_config())
        seconds = perf_counter() - started
        self.database = recovered
        edges = np.linspace(datagen.TARGET_LOW, datagen.TARGET_HIGH,
                            self.recovery_tiles + 1)
        lows = edges[:-1].copy()
        lows[1:] = np.nextafter(lows[1:], np.inf)
        highs = edges[1:]
        results = recovered.execute_many(make_requests(lows, highs))
        self.attempted += 1 + self.recovery_tiles
        for low, high, result in zip(lows, highs, results):
            self.verify(low, high, result.locations)
        found = sum(len(result.locations) for result in results)
        self.check(found == self.oracle.live_rows,
                   f"recovered database returned {found} rows, oracle holds "
                   f"{self.oracle.live_rows}")
        return seconds

    def write_metrics(self, replicas: list[list[Step]]) -> dict:
        """Insert throughput with each ``insert_many`` at the least of its
        replicas; the tail over *all* calls.

        ``write_p99_ms`` exists to show fsync, checkpoint and reorganise
        stalls, so it pools every insert_many / delete / update /
        checkpoint call of every replica.
        """
        inserts = [[step.insert_seconds for step in steps]
                   for steps in replicas]
        rows = self.insert_rows * self.iterations
        _, tail = latency_summary(np.concatenate(
            [step.write_latencies for steps in replicas for step in steps]))
        return {
            "write_rows_per_s": {
                "value": rows / float(least_per_call(inserts).sum()),
                "replays": len(replicas),
                "median_of_replays": float(np.median(
                    [rows / sum(seconds) for seconds in inserts]))},
            "write_p99_ms": tail,
        }

    def untraced(self) -> dict:
        replicas: list[list[Step]] = []
        for number in range(1, self.replicas + 1):
            if number > 1:
                self.rebuild()
            steps, _ = self.run_replica(
                "all" if number == self.replicas else "sample")
            replicas.append(steps)
        space = index_bytes_per_row(self.database)
        recovery_seconds = self.recover_and_check()
        reads = [Repetition(
            np.array([step.read_seconds for step in steps]),
            np.array([step.read_cpu for step in steps]),
            BATCH * len(steps)) for steps in replicas]
        values = {
            **read_metrics(reads),
            **self.write_metrics(replicas),
            "recovery_s": {"value": recovery_seconds},
            **self.common(),
        }
        # The space of the index the run maintained, not of the rebuilt one.
        values["index_bytes_per_row"] = {"value": space}
        return values

    def traced(self, recorder: Recorder) -> dict:
        """One replica of the schedule with every second step under the
        wrappers.

        The database moves on with every step, so a traced step cannot
        replay a plain one; neighbouring steps issue the same op counts on
        fresh rows instead.  Read and write layer timings come from the
        quietest traced step before the checkpoint (one TRS-Tree shape),
        counts (summed over every traced step) and stalls from the whole
        replica.
        """
        gen2_before = self.gen2_in_windows
        planner_before = self.database.planner_cache_stats()
        replays: dict[int, Replay] = {}
        phases, counts = Phases(), TrsCounts()

        def traced_step(number: int) -> Step:
            replay = replays[number] = Replay(phases=phases, counts=counts)
            install_engine_spans(recorder, self.database, counts)
            first = recorder.mark()
            try:
                step = self.run_step("none", phases.add)
            finally:
                replay.window = recorder.window(first)
                recorder.unwrap_all()
            replay.repetition = step.repetition()
            return step

        steps, stall = self.run_replica("all", traced_step)
        planner_after = self.database.planner_cache_stats()
        stats = self.database.durability_stats()
        structure = structure_metrics(self.database)
        self.recover_and_check()
        timings = self.database.durability_stats().recovery

        early = range(1, self.checkpoint_after + 1)
        number = min((n for n in early if n in replays), key=lambda n: (
            replays[n].repetition.wall + steps[n - 1].insert_seconds))
        best = replays[number]
        best_plain = min((steps[n - 1] for n in early if n not in replays),
                         key=lambda step: step.read_seconds)
        own = best.window.self_seconds()
        total = best.window.total_seconds()
        per_row = 1e6 / self.insert_rows
        wal_per_row = (sum(steps[n - 1].wal_bytes for n in replays)
                       / (self.insert_rows * len(replays)))
        values = layer_times(best)
        values.update(layer_counts(
            phases, counts, recorder.window().calls(),
            sum(item.repetition.requests for item in replays.values())))
        values.update(structure)
        values.update({
            "planner.misses": planner_after.misses - planner_before.misses,
            "planner.replays": planner_after.replays - planner_before.replays,
            "trs.insert_us_per_row":
                total.get("hermit.insert_many", 0.0) * per_row,
            "trs.reorganize_ms": stall["reorganize_s"] * 1e3,
            "trs.reorganized_nodes": stall["rebuilt"],
            "index.insert_us_per_row": (
                own.get("index.host.insert_many", 0.0)
                + own.get("index.primary.insert_many", 0.0)) * per_row,
            "storage.insert_us_per_row":
                own.get("storage.insert_many", 0.0) * per_row,
            "durability.log_us_per_row":
                own.get("durability.log_insert_many", 0.0) * per_row,
            "durability.wal_bytes_per_row": wal_per_row,
            "durability.wal_bytes_per_user_byte":
                wal_per_row / datagen.USER_BYTES_PER_ROW,
            "durability.wal_records": stats.wal_records,
            "durability.fsyncs": stats.fsyncs,
            "durability.checkpoint_ms": stall["checkpoint_s"] * 1e3,
            "durability.checkpoint_bytes": stall["checkpoint_bytes"],
            "durability.recover_load_s": timings.checkpoint_load_s,
            "durability.recover_rebuild_s": timings.rebuild_s,
            "durability.recover_replay_s": timings.wal_replay_s,
            "durability.records_replayed": timings.records_replayed,
            "process.gen2_collections": self.gen2_in_windows - gen2_before,
            "process.trace_overhead_share":
                best.repetition.wall / best_plain.read_seconds - 1.0,
            "process.warmup_ratio":
                self.warmup_per_call / best_plain.read_seconds,
        })
        return values


# ------------------------------------------------------------- shard_range

class ShardRange(RangeLinear):
    """The ``range_linear`` stream through two process shards."""

    name = "shard_range"
    calls_at_ten_seconds = 48.0
    warmup_calls = 12
    # A call waits for the slower of two workers, so the box reaches more
    # of them: two more replays than range_linear for each call to find a
    # quiet one among.
    replays = 14
    num_shards = 2
    sharded: ShardedDatabase | None = None

    def build(self) -> None:
        self.columns = datagen.table_columns(self.params.rows, self.kind)
        self.sharded = self.start("process")
        self.warm_up()

    def start(self, mode: str) -> ShardedDatabase:
        sharded = ShardedDatabase(num_shards=self.num_shards, mode=mode,
                                  pointer_scheme=self.scheme)
        boundaries = np.linspace(0, self.params.rows,
                                 self.num_shards + 1)[1:-1] - 0.5
        locations = load(sharded, self.columns, boundaries=boundaries)
        if mode == "process":
            self.oracle.insert(locations, self.columns[TARGET])
        return sharded

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
        super().close()

    def client(self):
        return self.sharded

    def partitions(self) -> list[Database]:
        """What each shard holds, rebuilt here through the public API.

        ``ShardedDatabase`` exposes no memory report, so the space metrics
        are read off plain databases loaded with each shard's key range.
        """
        databases = []
        keys = self.columns["colA"]
        edges = np.linspace(0, self.params.rows, self.num_shards + 1)
        for low, high in zip(edges[:-1], edges[1:]):
            mask = (keys >= low) & (keys < high)
            database = Database(pointer_scheme=self.scheme)
            load(database, {name: values[mask]
                            for name, values in self.columns.items()})
            databases.append(database)
        return databases

    def common(self) -> dict:
        # Take the peak before the partition copies inflate this process.
        peak = tree_peak_rss_mib()
        values = super().common(*self.partitions())
        values["peak_rss_mb"] = {"value": peak}
        return values

    def traced(self, recorder: Recorder) -> dict:
        """Transport against an inline twin; engine phases from breakdowns.

        The engines run in other processes, out of a wrapper's reach, so
        only ``ShardedDatabase.execute_many`` carries a span here and the
        four paper phases are ``QueryResult.breakdown`` seconds summed over
        the shards.  Each kind of pass runs ``TRACE_REPLAYS`` times; the quietest
        is read.
        """
        self.run_repetition(1, check="all")
        gen2_before = self.gen2_in_windows
        plain, traced, phase_sets, located = [], [], [], []
        for _ in range(TRACE_REPLAYS):
            plain.append(self.run_repetition(1, check="none"))
            phases, found = Phases(), [0]

            def on_results(results, phases=phases, found=found) -> None:
                phases.add(results)
                found[0] += sum(len(result.locations) for result in results)

            recorder.wrap(self.sharded, "execute_many",
                          "sharding.execute_many")
            try:
                traced.append(self.run_repetition(1, check="none",
                                               on_results=on_results))
            finally:
                recorder.unwrap_all()
            phase_sets.append(phases)
            located.append(found[0])

        with self.start("inline") as twin:
            inline = [self.run_repetition(1, check="none",
                                       execute_many=twin.execute_many)
                      for _ in range(TRACE_REPLAYS)]

        _, _, batches = self.stream(1)
        request_bytes = sum(len(pickle.dumps(("execute_many", batch)))
                            for batch in batches)
        quietest = int(np.argmin([rep.wall for rep in plain]))
        quietest_traced = int(np.argmin([rep.wall for rep in traced]))
        best_plain, phases = plain[quietest], phase_sets[quietest_traced]
        call_ms = float(np.median(best_plain.latencies) * 1e3)
        inline_ms = float(np.median(
            min(inline, key=lambda rep: rep.wall).latencies) * 1e3)
        requests = best_plain.requests
        per_request = 1e6 / requests
        values = {
            "hermit.candidates_per_result":
                phases.candidates / max(phases.results, 1),
            "hermit.fp_ratio": ((phases.candidates - phases.results)
                                / max(phases.candidates, 1)),
            "trs.translate_us_per_req": phases.trs * per_request,
            "index.host_probe_us_per_req": phases.host * per_request,
            "index.host_entries_per_req": phases.candidates / requests,
            "index.primary_resolve_us_per_req": phases.primary * per_request,
            "storage.validate_us_per_req": phases.base * per_request,
            "storage.validated_slots_per_req": phases.candidates / requests,
            "sharding.call_ms": call_ms,
            "sharding.inline_ms": inline_ms,
            "sharding.overhead_ms": call_ms - inline_ms / self.num_shards,
            "sharding.request_bytes_per_req": request_bytes / requests,
            "sharding.reply_bytes_per_req":
                8.0 * located[quietest_traced] / requests,
            "sharding.children_cpu_us_per_req":
                best_plain.children_cpu_seconds * per_request,
            "process.gen2_collections": self.gen2_in_windows - gen2_before,
            "process.trace_overhead_share":
                traced[quietest_traced].wall / best_plain.wall - 1.0,
            "process.warmup_ratio": self.warmup_per_call / (
                best_plain.wall / best_plain.latencies.size),
        }
        values.update(structure_metrics(*self.partitions()))
        return values


REGISTRY = {cls.name: cls for cls in (RangeLinear, PointSigmoid, ServeZipf,
                                      MixedRW, ShardRange)}


# ------------------------------------------------------------------ runner

def run_workload(name: str, params: Params, trace: bool) -> dict:
    """Run one workload in this process; returns its result record.

    Untraced: ``SETUPS`` set-ups, the timed replays, the end-to-end
    metrics.  Traced: one set-up, plain and traced replays of the same
    inputs, the per-layer metrics, and ``<name>.spans.jsonl``.
    """
    workload = REGISTRY[name](params)
    recorder = Recorder()
    try:
        workload.set_up(times=1 if trace else workload.setups)
        values = workload.traced(recorder) if trace else workload.untraced()
    finally:
        try:
            workload.close()
        finally:
            gc.unfreeze()
    if trace:
        params.out_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(params.out_dir / f"{name}.spans.jsonl")
        values = {metric.name: {"value": float(values.get(metric.name, 0.0))}
                  for metric in PER_LAYER}
    for message in workload.errors:
        print(message, file=sys.stderr)
    return {
        "workload": name,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "oracle_checked": workload.oracle.checked,
        "checks_violated": workload.checks,
        "spans": len(recorder.spans),
        "metrics": values,
    }
