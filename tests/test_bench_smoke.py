"""Bench-smoke guard: tiny-scale runs of the benchmark paths inside tier-1.

Asserts what the unit tests cannot: (1) on a real workload the
single-request pipeline (``lookup_range``), the segmented batch pipeline
(``lookup_range_many``) and a brute-force NumPy mask return identical sorted
int64 locations for every mechanism under both pointer schemes, (2) the
concrete index classes keep their genuinely batched write and segmented
probe overrides — if someone deletes one, everything silently degrades to
the per-element base form while staying correct — and (3) the write-path
race agrees at tiny scale.  (Every entry point of every deployment is
checked against the model by the state machine in ``test_engine_oracle``;
the other ratio suites' tiny-scale runs are in ``test_bench_ratio_gates``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.correlation_maps import CorrelationMap
from repro.bench.hotpath import build_hotpath_setup
from repro.bench.writepath import writepath_measurements
from repro.index.base import Index
from repro.index.hash_index import HashIndex
from repro.index.ordered import OrderedIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries

SMOKE_ROWS = 4_000
SMOKE_QUERIES = 8
SMOKE_INSERTS = 1_200


@pytest.mark.bench_smoke
class TestBatchedFormsNotFallback:
    def test_indexes_override_batched_write(self):
        """Every concrete index keeps a real (non-fallback) insert_many."""
        for index_class in (OrderedIndex, HashIndex, PagedBPlusTree):
            assert "insert_many" in index_class.__dict__
            assert index_class.insert_many is not Index.insert_many

    def test_engine_indexes_override_segmented_probes(self):
        """The batch pipeline's probes must not regress to per-range loops."""
        assert "range_search_segmented" in OrderedIndex.__dict__
        assert "search_many_segmented" in OrderedIndex.__dict__


def _mechanisms(setup, scheme):
    """Hermit and Baseline from the setup, plus a CM on the same host index."""
    low, high = setup.domain
    hosts = setup.table.column_array("host")
    cm = CorrelationMap(
        setup.table, "target", "host", setup.hermit.host_index,
        target_bucket_width=(high - low) / 64.0,
        host_bucket_width=float(np.ptp(hosts)) / 64.0,
        primary_index=setup.hermit.primary_index, pointer_scheme=scheme,
    )
    cm.build()
    return {**setup.mechanisms, "CM": cm}


@pytest.mark.bench_smoke
class TestPipelinesAgreeOnWorkloads:
    """single == batch == brute-force mask, Hermit / Baseline / CM."""

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    @pytest.mark.parametrize("workload", ["synthetic", "sensor", "stock"])
    def test_single_batch_and_mask_agree(self, workload, scheme):
        setup = build_hotpath_setup(workload, SMOKE_ROWS,
                                    pointer_scheme=scheme)
        queries = range_queries(setup.domain, 0.01, count=SMOKE_QUERIES,
                                seed=42)
        slots, targets = setup.table.project(["target"])
        expected = [slots[(targets >= q.low) & (targets <= q.high)]
                    for q in queries]
        assert sum(found.size for found in expected) > 0
        for label, mechanism in _mechanisms(setup, scheme).items():
            singles = [mechanism.lookup_range(q.low, q.high).locations
                       for q in queries]
            batch = mechanism.lookup_range_many(
                [(q.low, q.high) for q in queries])
            assert batch.breakdown.lookups == len(queries)
            for single, batched, mask in zip(
                    singles, batch.locations_per_query, expected):
                for found in (single, batched):
                    assert isinstance(found, np.ndarray), label
                    assert found.dtype == np.int64, label
                    assert np.array_equal(found, mask), label
        # Both pipelines read the TRS-Tree's leaf table and outlier view;
        # they must still form one well-shaped tree.
        setup.hermit.trs_tree.check_invariants()


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
