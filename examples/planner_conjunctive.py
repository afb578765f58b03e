"""Conjunctive queries through the planner: Hermit path + host-index intersection.

Run with::

    python examples/planner_conjunctive.py

The script builds the Synthetic workload under *logical* pointers (the
MySQL-style scheme where every secondary-index candidate costs a primary-index
descent), creates a Hermit index on ``colC`` hosted by the pre-existing
``colB`` B+-tree, and then answers a two-predicate conjunctive query::

    SELECT ... WHERE 100k <= colC <= 104k AND 150k <= colB <= 250k

three ways:

1. **Planner** — ``Database.execute`` lets the cost model decide.
   Under logical pointers every candidate is expensive to resolve, so the
   planner executes *both* access paths — the Hermit mechanism for the colC
   predicate and the host B+-tree for the colB predicate — intersects their
   candidate tid sets with ``np.intersect1d`` while they are still primary
   keys, and only then pays resolution + validation for the survivors.
2. **Manual plan A** — Hermit probe for colC, then post-filter colB.
3. **Manual plan B** — host-index probe for colB, then post-filter colC.

All three return identical rows; the plan explanation and the timings show
why the intersection wins.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Database, IndexMethod, PointerScheme, QueryRequest, RangePredicate
from repro.workloads.synthetic import generate_synthetic, load_synthetic

NUM_TUPLES = 100_000


def manual_plan(database: Database, table_name: str, index_name: str,
                probe: RangePredicate, post: RangePredicate) -> np.ndarray:
    """One forced index read plus a vectorized post-filter.

    ``query_with`` returns sorted, duplicate-free locations and the filter
    keeps their order, so the result needs no further dedup.
    """
    result = database.query_with(table_name, index_name, probe)
    return database.table(table_name).filter_in_range(
        result.locations, post.column, post.low, post.high
    )


def timed(label: str, thunk):
    started = time.perf_counter()
    result = thunk()
    seconds = time.perf_counter() - started
    print(f"  {label:<42} {seconds * 1e3:8.2f} ms   {len(result):5d} rows")
    return result


def main() -> None:
    print(f"Loading Synthetic-Linear ({NUM_TUPLES // 1000}k tuples) "
          f"under LOGICAL pointers...")
    dataset = generate_synthetic(NUM_TUPLES, "linear", noise_fraction=0.01)
    database = Database(pointer_scheme=PointerScheme.LOGICAL)
    table_name = load_synthetic(database, dataset)
    database.create_index("idx_colC", table_name, "colC",
                          method=IndexMethod.HERMIT, host_column="colB")

    # colB = 2*colC + 10, so the host window [280k, 330k] covers the image
    # of colC in [140k, 165k]: each predicate alone matches thousands of
    # rows, their conjunction under a fifth of that — the regime where
    # intersecting candidate tid sets beats any single-index plan.
    target = RangePredicate("colC", 100_000.0, 150_000.0)
    host = RangePredicate("colB", 280_000.0, 330_000.0)
    request = QueryRequest.of(table_name, [target, host])

    print("\nEXPLAIN:")
    print(database.explain(request).describe())

    print("\nRacing the three plans:")
    planned = timed("planner (Hermit ∩ host-index, batched)",
                    lambda: database.execute(request).locations)
    hermit_first = timed("manual: Hermit probe + colB post-filter",
                         lambda: manual_plan(database, table_name, "idx_colC",
                                             target, host))
    host_first = timed("manual: host-index probe + colC post-filter",
                       lambda: manual_plan(database, table_name, "idx_colB",
                                           host, target))

    assert np.array_equal(planned, hermit_first)
    assert np.array_equal(planned, host_first)
    print(f"\nAll three plans returned the same {len(planned)} rows.")
    print("Under logical pointers the intersection pays off because tids are "
          "intersected\nbefore the per-candidate primary-index resolution, "
          "not after.")


if __name__ == "__main__":
    main()
