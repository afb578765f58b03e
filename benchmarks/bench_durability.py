"""Durability benchmark — WAL overhead per fsync policy, and recovery time.

Not a paper figure: this benchmark tracks the cost of the durability
subsystem along the repo's own perf trajectory.  Four insert runs are raced
back-to-back into an indexed table (B+-tree on the host column, Hermit on
the correlated target), 60k rows in chunked ``insert_many`` batches:

* ``no-WAL``       — durability disabled (the default in-memory engine);
* ``fsync=off``    — full WAL encoding + appends, no fsync;
* ``fsync=batch``  — group commit every ``fsync_interval`` records;
* ``fsync=always`` — fsync per appended record (one per chunk).

The gated ratios are policy-vs-no-WAL throughput — machine-independent the
same way the vectorization speedups are — plus recovery throughput relative
to the live insert path: recovery replays the same batched DML and rebuilds
every mechanism from data, so it is expected to run within a small factor
of the forward path (the paper's cheap-to-rebuild story as a measurement).

Run standalone (CI size), emitting a JSON record for the regression gate::

    PYTHONPATH=src python benchmarks/bench_durability.py \
        --rows 60000 --output durability_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time

import numpy as np

from repro.durability import DurabilityConfig, FsyncPolicy
from repro.durability.recovery import recover
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.storage.schema import numeric_schema

CHUNK_ROWS = 2_000
BASE_ROWS_FRACTION = 6  # base table = rows // 6, loaded before the indexes


def make_chunks(rows: int, base_rows: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    total = base_rows + rows
    a = np.sort(rng.uniform(0.0, 10_000.0, total))
    b = 1.5 * a + rng.normal(0.0, 20.0, total)
    pk = np.arange(total, dtype=np.int64)
    base = {"pk": pk[:base_rows], "a": a[:base_rows], "b": b[:base_rows]}
    chunks = []
    for start in range(base_rows, total, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, total)
        chunks.append({"pk": pk[start:stop], "a": a[start:stop],
                       "b": b[start:stop]})
    return base, chunks


def build_database(base: dict, durability: DurabilityConfig | None) -> Database:
    database = Database(durability=durability)
    database.create_table(numeric_schema("t", ["pk", "a", "b"],
                                         primary_key="pk"))
    database.insert_many("t", base)
    database.create_index("ix_a", "t", "a")
    database.create_index("ix_b", "t", "b", method=IndexMethod.HERMIT,
                          host_column="a")
    return database


def timed_insert_run(base: dict, chunks: list[dict],
                     durability: DurabilityConfig | None) -> tuple[float, Database]:
    """Seconds to insert every chunk (including the final WAL flush)."""
    database = build_database(base, durability)
    start = time.perf_counter()
    for chunk in chunks:
        database.insert_many("t", chunk)
    database.flush_wal()
    elapsed = time.perf_counter() - start
    return elapsed, database


def run_suite(rows: int, rounds: int, fsync_interval: int) -> dict:
    base_rows = rows // BASE_ROWS_FRACTION
    base, chunks = make_chunks(rows, base_rows)
    inserted = sum(len(chunk["pk"]) for chunk in chunks)

    policies = [
        ("no_wal", None),
        ("off", FsyncPolicy.OFF),
        ("batch", FsyncPolicy.BATCH),
        ("always", FsyncPolicy.ALWAYS),
    ]
    best_kops: dict[str, float] = {name: 0.0 for name, _ in policies}
    best_recovery: dict | None = None
    reference_result: list[int] | None = None
    results_agree = True
    request = QueryRequest.range("t", "b", 2_000.0, 6_500.0)

    for _ in range(rounds):
        for name, policy in policies:
            directory = (tempfile.mkdtemp(prefix=f"bench_wal_{name}_")
                         if policy is not None else None)
            try:
                config = (DurabilityConfig(directory=directory, fsync=policy,
                                           fsync_interval=fsync_interval)
                          if policy is not None else None)
                elapsed, database = timed_insert_run(base, chunks, config)
                best_kops[name] = max(best_kops[name],
                                      inserted / elapsed / 1e3)
                locations = database.execute(request).locations
                if reference_result is None:
                    reference_result = locations
                elif not np.array_equal(locations, reference_result):
                    results_agree = False
                database.close()

                if policy is FsyncPolicy.OFF:
                    # recovery of the full WAL (no checkpoint): replays the
                    # base batch, the DDL and every chunk, rebuilds indexes
                    recovered = recover(DurabilityConfig(directory=directory))
                    timings = recovered.durability_stats().recovery
                    if not np.array_equal(
                            recovered.execute(request).locations,
                            reference_result):
                        results_agree = False
                    total_rows = base_rows + inserted
                    candidate = {
                        "recovery_s": timings.total_s,
                        "recovery_wal_replay_s": timings.wal_replay_s,
                        "recovery_rebuild_s": timings.rebuild_s,
                        "recovery_records": timings.records_replayed,
                        "recovery_kops": total_rows / timings.total_s / 1e3,
                    }
                    recovered.close()
                    if (best_recovery is None
                            or candidate["recovery_s"]
                            < best_recovery["recovery_s"]):
                        best_recovery = candidate
            finally:
                if directory is not None:
                    shutil.rmtree(directory, ignore_errors=True)

    measurement = {
        "workload": "durability",
        "rows": inserted,
        "base_rows": base_rows,
        "chunk_rows": CHUNK_ROWS,
        "fsync_interval": fsync_interval,
        "results_agree": results_agree,
        "nowal_kops": best_kops["no_wal"],
        "wal_off_kops": best_kops["off"],
        "wal_batch_kops": best_kops["batch"],
        "wal_always_kops": best_kops["always"],
        "wal_off_ratio": best_kops["off"] / best_kops["no_wal"],
        "wal_batch_ratio": best_kops["batch"] / best_kops["no_wal"],
        "wal_always_ratio": best_kops["always"] / best_kops["no_wal"],
    }
    measurement.update(best_recovery)
    measurement["recovery_vs_insert"] = (
        best_recovery["recovery_kops"] / best_kops["no_wal"]
    )
    return measurement


def format_measurement(m: dict) -> str:
    lines = [
        f"insert {m['rows']} rows (chunks of {m['chunk_rows']}, "
        f"base {m['base_rows']}, group commit every "
        f"{m['fsync_interval']} records):",
        f"  no-WAL       {m['nowal_kops']:>8.1f} Krows/s",
        f"  fsync=off    {m['wal_off_kops']:>8.1f} Krows/s "
        f"({m['wal_off_ratio']:.3f}x)",
        f"  fsync=batch  {m['wal_batch_kops']:>8.1f} Krows/s "
        f"({m['wal_batch_ratio']:.3f}x)",
        f"  fsync=always {m['wal_always_kops']:>8.1f} Krows/s "
        f"({m['wal_always_ratio']:.3f}x)",
        f"recovery of the {m['recovery_records']}-record WAL "
        f"({m['base_rows'] + m['rows']} rows):",
        f"  total {m['recovery_s']:.3f}s  (replay {m['recovery_wal_replay_s']:.3f}s, "
        f"index rebuild {m['recovery_rebuild_s']:.3f}s)  "
        f"{m['recovery_kops']:.1f} Krows/s "
        f"= {m['recovery_vs_insert']:.2f}x the live insert path",
        f"results agree: {m['results_agree']}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=60_000,
                        help="rows inserted through each policy (default 60k)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds per policy; best throughput is kept")
    parser.add_argument("--fsync-interval", type=int, default=64,
                        help="group-commit size for fsync=batch (default 64)")
    parser.add_argument("--output", default="bench_durability.json",
                        help="path of the emitted JSON record")
    args = parser.parse_args(argv)

    measurement = run_suite(args.rows, args.rounds, args.fsync_interval)
    print(format_measurement(measurement))

    record = {
        "benchmark": "durability",
        "rows": args.rows,
        "rounds": args.rounds,
        "measurements": [measurement],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.abspath(args.output)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
