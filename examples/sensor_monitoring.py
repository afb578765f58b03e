"""Sensor scenario: non-linear correlations and the error_bound trade-off.

The Sensor application monitors gas concentration with 16 sensors whose
readings are *non-linearly* correlated with the per-row average reading (the
only indexed column).  This example indexes several sensor columns with
Hermit, shows how the TRS-Tree adapts its depth to the curvature, and sweeps
the ``error_bound`` parameter to expose the space/computation trade-off the
paper discusses in Section 6.

Run with::

    python examples/sensor_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import Database, IndexMethod, QueryRequest, TRSTreeConfig
from repro.bench.harness import run_query_batch
from repro.bench.report import format_table
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.queries import range_queries
from repro.workloads.sensor import generate_sensor, load_sensor, sensor_column

NUM_TUPLES = 30_000


def main() -> None:
    print(f"Generating {NUM_TUPLES} sensor readings (16 sensors + average)...")
    dataset = generate_sensor(num_tuples=NUM_TUPLES)
    database = Database()
    table_name = load_sensor(database, dataset)

    print("\nIndexing three sensor columns with Hermit (host = average):")
    rows = []
    for sensor in (0, 5, 10):
        entry = database.create_index(f"idx_{sensor_column(sensor)}", table_name,
                                      sensor_column(sensor),
                                      method=IndexMethod.HERMIT,
                                      host_column="average")
        tree = entry.mechanism.trs_tree
        rows.append([sensor_column(sensor), tree.num_leaves, tree.height,
                     tree.num_outliers,
                     entry.mechanism.memory_bytes() / BYTES_PER_MB])
    print(format_table(["column", "leaves", "height", "outliers", "memory (MB)"],
                       rows))

    # Verify a monitoring query against a scan.
    readings = dataset.columns[sensor_column(5)]
    low, high = (float(np.quantile(readings, 0.7)),
                 float(np.quantile(readings, 0.8)))
    result = database.execute(
        QueryRequest.range(table_name, sensor_column(5), low, high))
    expected = int(((readings >= low) & (readings <= high)).sum())
    assert len(result) == expected
    print(f"\n'When did sensor_5 read between {low:.1f} and {high:.1f}?' -> "
          f"{len(result)} periods (verified)")

    # error_bound sweep on a fresh database: space vs computation.
    print("\nerror_bound trade-off on sensor_0 (Section 6):")
    sweep_rows = []
    for error_bound in (1.0, 10.0, 100.0, 1000.0):
        sweep_db = Database()
        sweep_table = load_sensor(sweep_db, dataset)
        entry = sweep_db.create_index(
            "idx_s0", sweep_table, sensor_column(0), method=IndexMethod.HERMIT,
            host_column="average",
            trs_config=TRSTreeConfig(error_bound=error_bound))
        domain = (float(dataset.columns[sensor_column(0)].min()),
                  float(dataset.columns[sensor_column(0)].max()))
        batch = run_query_batch(sweep_db, sweep_table, "idx_s0",
                                range_queries(domain, 0.01, count=20, seed=1))
        sweep_rows.append([error_bound,
                           entry.mechanism.memory_bytes() / BYTES_PER_MB,
                           batch.throughput.kops,
                           batch.false_positive_ratio])
    print(format_table(["error_bound", "memory (MB)", "Kops",
                        "false-positive ratio"], sweep_rows))


if __name__ == "__main__":
    main()
