"""Quickstart: build a Hermit index and compare it against a complete B+-tree.

Run with::

    python examples/quickstart.py

The script loads the paper's Synthetic workload (colB = 2*colC + 10 with 1%
injected noise), lets the correlation advisor decide that ``colC`` can be
served by a Hermit index hosted on the existing ``colB`` index, and then
compares result correctness, lookup latency and memory against a conventional
B+-tree secondary index.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Database, IndexMethod, PointerScheme, RangePredicate
from repro.bench.report import format_memory_report, format_table
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.synthetic import generate_synthetic, load_synthetic


def main() -> None:
    print("Generating the Synthetic-Linear workload (50k tuples, 1% noise)...")
    dataset = generate_synthetic(50_000, "linear", noise_fraction=0.01)
    database = Database(pointer_scheme=PointerScheme.PHYSICAL)
    table_name = load_synthetic(database, dataset)

    print("Creating an index on colC with method=AUTO ...")
    entry = database.create_index("idx_colC", table_name, "colC",
                                  method=IndexMethod.AUTO)
    print(f"  advisor chose: {entry.method.value}"
          f" (host column: {entry.host_column})")

    baseline = database.create_index("idx_colC_btree", table_name, "colC",
                                     method=IndexMethod.BTREE)

    predicate = RangePredicate("colC", 250_000.0, 300_000.0)
    started = time.perf_counter()
    hermit_result = database.query_with(table_name, "idx_colC", predicate)
    hermit_seconds = time.perf_counter() - started

    started = time.perf_counter()
    baseline_result = database.query_with(table_name, "idx_colC_btree", predicate)
    baseline_seconds = time.perf_counter() - started

    assert np.array_equal(hermit_result.locations, baseline_result.locations)
    print(f"\nBoth mechanisms returned the same {len(hermit_result)} tuples.")
    print(format_table(
        ["mechanism", "latency (ms)", "false-positive ratio", "index memory (MB)"],
        [
            ["HERMIT", hermit_seconds * 1e3,
             hermit_result.breakdown.false_positive_ratio,
             entry.mechanism.memory_bytes() / BYTES_PER_MB],
            ["B+-tree", baseline_seconds * 1e3,
             baseline_result.breakdown.false_positive_ratio,
             baseline.mechanism.memory_bytes() / BYTES_PER_MB],
        ],
    ))

    print("\nDatabase-wide memory breakdown:")
    print(format_memory_report(database.memory_report(table_name)))

    trs_tree = entry.mechanism.trs_tree
    print(f"\nTRS-Tree internals: {trs_tree.num_leaves} leaves, "
          f"height {trs_tree.height}, {trs_tree.num_outliers} outliers "
          f"(the injected noise).")


if __name__ == "__main__":
    main()
