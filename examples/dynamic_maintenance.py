"""Dynamic workload: online inserts, deletes and structure reorganization.

The key operational difference between Hermit and learned-index approaches is
that the TRS-Tree absorbs inserts/deletes/updates immediately (outlier
buffers) and re-optimises itself with on-demand structure reorganization,
instead of requiring a full retraining pass.  This example drives a mixed
workload against a Hermit-indexed table, shows the outlier buffers filling
up, rebuilds the flagged nodes with ``Database.reorganize()``, and verifies
that every intermediate state still answers queries exactly.

Run with::

    python examples/dynamic_maintenance.py
"""

from __future__ import annotations

import numpy as np

from repro import Database, IndexMethod, QueryRequest, RangePredicate
from repro.bench.report import format_table
from repro.storage.memory import BYTES_PER_MB
from repro.workloads.synthetic import generate_synthetic, load_synthetic

INITIAL_TUPLES = 10_000
CHURN_OPERATIONS = 5_000


def verify(database, table_name) -> None:
    predicate = RangePredicate("colC", 300_000.0, 350_000.0)
    indexed = database.execute(QueryRequest.of(table_name, predicate))
    slots, values = database.table(table_name).project([predicate.column])
    scanned = slots[(values >= predicate.low) & (values <= predicate.high)]
    assert np.array_equal(indexed.locations, scanned)


def main() -> None:
    rng = np.random.default_rng(0)
    dataset = generate_synthetic(INITIAL_TUPLES, "sigmoid", noise_fraction=0.01)
    database = Database()
    table_name = load_synthetic(database, dataset)
    entry = database.create_index("idx_colC", table_name, "colC",
                                  method=IndexMethod.HERMIT, host_column="colB")
    hermit = entry.mechanism

    snapshots = []

    def snapshot(label: str) -> None:
        tree = hermit.trs_tree
        snapshots.append([label, tree.num_leaves, tree.num_outliers,
                          hermit.memory_bytes() / BYTES_PER_MB,
                          hermit.pending_reorganizations])

    snapshot("after build")
    verify(database, table_name)

    print(f"Applying {CHURN_OPERATIONS} mixed insert/delete/update operations...")
    live = [int(s) for s in database.table(table_name).live_slots()]
    for step in range(CHURN_OPERATIONS):
        choice = step % 4
        if choice in (0, 1):  # 50% inserts, half of them "drifted" (outliers)
            col_c = float(rng.uniform(0, 1e6))
            drifted = choice == 1
            col_b = float(rng.uniform(0, 1e6)) if drifted else None
            if col_b is None:
                col_b = float(dataset.columns["colB"].mean())
            live.append(database.insert(table_name, {
                "colA": 1e8 + step, "colB": col_b, "colC": col_c, "colD": 0.0,
            }))
        elif choice == 2 and live:
            database.delete(table_name, live.pop(0))
        elif live:
            database.update(table_name, live[0],
                            {"colC": float(rng.uniform(0, 1e6))})
    snapshot("after churn")
    verify(database, table_name)

    print("Rebuilding the flagged nodes...")
    rebuilt = database.reorganize()
    snapshot("after reorganization")
    verify(database, table_name)

    print(f"\nReorganization rebuilt {rebuilt} node(s).")
    print(format_table(
        ["stage", "leaves", "outliers", "memory (MB)", "pending reorgs"],
        snapshots,
    ))
    print("\nEvery stage answered the verification query exactly.")


if __name__ == "__main__":
    main()
