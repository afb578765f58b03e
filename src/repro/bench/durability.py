"""Durability cost: WAL overhead per fsync policy, and recovery throughput.

Not a paper figure: the durability subsystem's contract *is* a ratio — an
insert stream with the write-ahead log attached must keep a stated fraction
of the no-WAL stream's throughput, and recovery (which replays the same
batched DML and rebuilds every mechanism from data — the paper's
cheap-to-rebuild story as a measurement) must run within a small factor of
the live insert path.  Chunked ``insert_many`` batches go into an indexed
table (B+-tree on the host column, Hermit on the correlated target); each
fsync policy and recovery is raced against the no-WAL stream:

* ``wal_off_ratio``    — full WAL encoding + appends, no fsync;
* ``wal_batch_ratio``  — group commit every ``FSYNC_INTERVAL`` records;
* ``wal_always_ratio`` — fsync per appended record (one per chunk);
* ``recovery_vs_insert`` — rows recovered per second from a full WAL (no
  checkpoint: base batch, DDL and every chunk replayed) over rows inserted
  per second without one.
"""

from __future__ import annotations

import gc
import tempfile
import time

import numpy as np

from repro.bench.timing import paired_ratio
from repro.durability import DurabilityConfig, FsyncPolicy
from repro.durability.recovery import recover
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.storage.schema import numeric_schema

CHUNK_ROWS = 2_000
FSYNC_INTERVAL = 64
_REQUEST = QueryRequest.range("t", "b", 2_000.0, 6_500.0)


def _make_chunks(rows: int, base_rows: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    total = base_rows + rows
    a = np.sort(rng.uniform(0.0, 10_000.0, total))
    b = 1.5 * a + rng.normal(0.0, 20.0, total)
    pk = np.arange(total, dtype=np.int64)
    base = {"pk": pk[:base_rows], "a": a[:base_rows], "b": b[:base_rows]}
    chunks = [{"pk": pk[start:start + CHUNK_ROWS],
               "a": a[start:start + CHUNK_ROWS],
               "b": b[start:start + CHUNK_ROWS]}
              for start in range(base_rows, total, CHUNK_ROWS)]
    return base, chunks


def measure_durability(rows: int, rounds: int) -> dict:
    """Race every fsync policy, and recovery, against the no-WAL stream.

    The base table (``rows // 6``) is loaded before the indexes exist.  A
    side's cost is seconds per row, so the recovery race — which recovers
    base + inserted rows — compares like with like.
    """
    base_rows = rows // 6
    base, chunks = _make_chunks(rows, base_rows)
    answers: list[np.ndarray] = []   # the first answer, then disagreeing ones

    def check(locations: np.ndarray) -> None:
        if not answers or not np.array_equal(locations, answers[0]):
            answers.append(locations)

    def insert_run(directory: str | None = None,
                   policy: FsyncPolicy = FsyncPolicy.OFF) -> float:
        """Seconds per inserted row (final WAL flush included); no WAL
        without a directory."""
        config = (DurabilityConfig(directory=directory, fsync=policy,
                                   fsync_interval=FSYNC_INTERVAL)
                  if directory is not None else None)
        database = Database(durability=config)
        database.create_table(numeric_schema("t", ["pk", "a", "b"],
                                             primary_key="pk"))
        database.insert_many("t", base)
        database.create_index("ix_a", "t", "a")
        database.create_index("ix_b", "t", "b", method=IndexMethod.HERMIT,
                              host_column="a")
        # Collect the set-up's (and the previous run's) garbage now, so a
        # full collection owed to them does not land inside the timed loop.
        gc.collect()
        started = time.perf_counter()
        for chunk in chunks:
            database.insert_many("t", chunk)
        database.flush_wal()
        elapsed = time.perf_counter() - started
        check(database.execute(_REQUEST).locations)
        database.close()
        return elapsed / rows

    def with_wal(policy: FsyncPolicy):
        def side() -> float:
            with tempfile.TemporaryDirectory(prefix="bench_wal_") as directory:
                return insert_run(directory, policy)
        return side

    recoveries = []

    def recovery() -> float:
        with tempfile.TemporaryDirectory(prefix="bench_wal_") as directory:
            insert_run(directory)
            recovered = recover(DurabilityConfig(directory=directory))
            recoveries.append(recovered.durability_stats().recovery)
            check(recovered.execute(_REQUEST).locations)
            recovered.close()
        return recoveries[-1].total_s / (base_rows + rows)

    measurement = {"workload": "durability", "rows": rows,
                   "base_rows": base_rows, "chunk_rows": CHUNK_ROWS,
                   "fsync_interval": FSYNC_INTERVAL}
    for metric, side in (
            ("wal_off_ratio", with_wal(FsyncPolicy.OFF)),
            ("wal_batch_ratio", with_wal(FsyncPolicy.BATCH)),
            ("wal_always_ratio", with_wal(FsyncPolicy.ALWAYS)),
            ("recovery_vs_insert", recovery)):
        paired = paired_ratio(side, insert_run, rounds)
        measurement[metric] = paired.ratio
        measurement[f"{metric}_race"] = paired.as_dict(
            "seconds_per_row", "nowal_seconds_per_row")
    last = recoveries[-1]
    measurement.update(
        recovery_s=last.total_s, recovery_wal_replay_s=last.wal_replay_s,
        recovery_rebuild_s=last.rebuild_s,
        recovery_records=last.records_replayed,
        results_agree=len(answers) == 1)
    return measurement
