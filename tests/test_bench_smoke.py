"""Bench-smoke guard: tiny-scale runs of the benchmark paths inside tier-1.

Asserts what the unit tests cannot: (1) on a real workload the
single-request pipeline (``Database.query_with``), the segmented batch
pipeline (``query_with_many``) and a brute-force NumPy mask return identical
sorted int64 locations for every mechanism under both pointer schemes, (2)
the concrete index classes keep their genuinely batched write and segmented
probe overrides — if someone deletes one, everything silently degrades to
the per-element base form while staying correct — and (3) the write-path
race agrees at tiny scale.  (Every entry point of every deployment is
checked against the model by the state machine in ``test_engine_oracle``;
the other ratio suites' tiny-scale runs are in ``test_bench_ratio_gates``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.writepath import _workload_columns, writepath_measurements
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import RangePredicate
from repro.index.base import Index
from repro.index.ordered import OrderedIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.workloads.queries import range_queries

SMOKE_ROWS = 4_000
SMOKE_QUERIES = 8
SMOKE_INSERTS = 1_200


@pytest.mark.bench_smoke
class TestBatchedFormsNotFallback:
    def test_indexes_override_batched_write(self):
        """Every concrete index keeps a real (non-fallback) insert_many."""
        for index_class in (OrderedIndex, PagedBPlusTree):
            assert "insert_many" in index_class.__dict__
            assert index_class.insert_many is not Index.insert_many

    def test_engine_indexes_override_segmented_probes(self):
        """The batch pipeline's probes must not regress to per-range loops."""
        assert "range_search_segmented" in OrderedIndex.__dict__
        assert "search_many_segmented" in OrderedIndex.__dict__


def _workload_database(workload, scheme):
    """One workload table with Hermit, Baseline and a CM on ``target``, all
    three on the one complete host index."""
    targets, hosts = _workload_columns(workload, SMOKE_ROWS, seed=42)
    database = Database(pointer_scheme=scheme)
    database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                         primary_key="pk"))
    database.insert_many("t", {"pk": np.arange(SMOKE_ROWS, dtype=np.float64),
                               "host": hosts, "target": targets})
    database.create_index("idx_host", "t", "host", preexisting=True)
    database.create_index("HERMIT", "t", "target",
                          method=IndexMethod.HERMIT, host_column="host")
    database.create_index("Baseline", "t", "target")
    database.create_index(
        "CM", "t", "target", method=IndexMethod.CORRELATION_MAP,
        host_column="host",
        cm_target_bucket_width=float(np.ptp(targets)) / 64.0,
        cm_host_bucket_width=float(np.ptp(hosts)) / 64.0)
    return database, (float(np.min(targets)), float(np.max(targets)))


@pytest.mark.bench_smoke
class TestPipelinesAgreeOnWorkloads:
    """single == batch == brute-force mask, Hermit / Baseline / CM."""

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    @pytest.mark.parametrize("workload", ["synthetic", "sensor", "stock"])
    def test_single_batch_and_mask_agree(self, workload, scheme):
        database, domain = _workload_database(workload, scheme)
        queries = range_queries(domain, 0.01, count=SMOKE_QUERIES, seed=42)
        predicates = [RangePredicate("target", q.low, q.high)
                      for q in queries]
        slots, targets = database.table("t").project(["target"])
        expected = [slots[(targets >= q.low) & (targets <= q.high)]
                    for q in queries]
        assert sum(found.size for found in expected) > 0
        for label in ("HERMIT", "Baseline", "CM"):
            singles = [database.query_with("t", label, predicate).locations
                       for predicate in predicates]
            batch = database.query_with_many("t", label, predicates)
            assert batch[0].breakdown.lookups == len(queries)
            for single, batched, mask in zip(singles, batch, expected):
                for found in (single, batched.locations):
                    assert isinstance(found, np.ndarray), label
                    assert found.dtype == np.int64, label
                    assert np.array_equal(found, mask), label
        # Both pipelines read the TRS-Tree's leaf table and outlier view,
        # and the CM's bucket map: every index still agrees with the table.
        database.check_invariants()


@pytest.mark.bench_smoke
class TestWritepathSmokeRun:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_scalar_and_batched_writes_agree_at_tiny_scale(self, scheme):
        measurements = writepath_measurements(
            insert_rows=SMOKE_INSERTS, rounds=1, workloads=("synthetic",),
            pointer_scheme=scheme,
        )
        assert len(measurements) == 2  # HERMIT + Baseline
        assert all(m["results_agree"] for m in measurements)
        assert all(m["total_results"] > 0 for m in measurements)
        # At tiny scale just require the batch path not to collapse; the 5x
        # acceptance target applies to the full-scale standalone run.
        assert all(m["speedup_batched"] > 0.5 for m in measurements)
