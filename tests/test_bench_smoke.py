"""Bench-smoke guard: tiny-scale runs of the benchmark paths inside tier-1.

Asserts what the unit tests cannot: (1) on a real workload the
single-request pipeline (``lookup_range``), the segmented batch pipeline
(``lookup_range_many``) and a brute-force NumPy mask return identical sorted
int64 locations for every mechanism under both pointer schemes, (2) the
concrete index classes keep their genuinely batched write and segmented
probe overrides — if someone deletes one, everything silently degrades to
the per-element base form while staying correct — and (3) the write-path,
planner and batched-query races agree at tiny scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.correlation_maps import CorrelationMap
from repro.bench.hotpath import build_hotpath_setup
from repro.bench.planner import run_planner_suite
from repro.bench.query_throughput import run_query_throughput_suite
from repro.bench.writepath import run_writepath_suite
from repro.index.base import Index
from repro.index.bptree import BPlusTree
from repro.index.hash_index import HashIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.index.sorted_column import SortedColumnIndex
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries

SMOKE_ROWS = 4_000
SMOKE_QUERIES = 8
SMOKE_INSERTS = 1_200


@pytest.mark.bench_smoke
class TestBatchedFormsNotFallback:
    def test_indexes_override_batched_write(self):
        """Every concrete index keeps a real (non-fallback) insert_many."""
        for index_class in (BPlusTree, SortedColumnIndex, HashIndex,
                            PagedBPlusTree):
            assert "insert_many" in index_class.__dict__
            assert index_class.insert_many is not Index.insert_many

    def test_engine_indexes_override_segmented_probes(self):
        """The batch pipeline's probes must not regress to per-range loops."""
        for index_class in (BPlusTree, SortedColumnIndex):
            assert "range_search_segmented" in index_class.__dict__
        assert "search_many_segmented" in BPlusTree.__dict__
        assert "range_search_many_array" in SortedColumnIndex.__dict__


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
    @pytest.mark.parametrize("workload,host_kind", [
        ("synthetic", "btree"), ("sensor", "btree"), ("stock", "sorted"),
    ])
    def test_single_batch_and_mask_agree(self, workload, host_kind, scheme):
        setup = build_hotpath_setup(workload, SMOKE_ROWS,
                                    pointer_scheme=scheme,
                                    host_index_kind=host_kind)
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
        # Both pipelines read the TRS-Tree's flat structures; they must
        # still equal a from-scratch flatten of the pointer tree.
        setup.hermit.trs_tree.check_invariants()


@pytest.mark.bench_smoke
class TestWritepathSmokeRun:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_scalar_and_batched_writes_agree_at_tiny_scale(self, scheme):
        measurements = run_writepath_suite(
            workloads=("synthetic",), insert_rows=SMOKE_INSERTS,
            pointer_scheme=scheme,
        )
        assert len(measurements) == 2  # HERMIT + Baseline
        assert all(m.results_agree for m in measurements)
        assert all(m.total_results > 0 for m in measurements)
        # At tiny scale just require the batch path not to collapse; the 5x
        # acceptance target applies to the full-scale standalone run.
        assert all(m.speedup_batched > 0.5 for m in measurements)


@pytest.mark.bench_smoke
class TestPlannerSmokeRun:
    def test_planner_parity_with_manual_plans(self):
        """Planner plans agree with every manual plan and stay competitive.

        The full-scale ``bench_planner.py`` run gates the 0.9x floor against
        the best manual plan; at tiny scale per-query work is mostly call
        dispatch, so this pins correctness parity plus a loose throughput
        floor that still catches the planner collapsing to a scan or a
        pathological plan.
        """
        measurements = run_planner_suite(num_tuples=SMOKE_ROWS,
                                         selectivity=0.01,
                                         num_queries=SMOKE_QUERIES)
        assert {m.query_class for m in measurements} == {
            "single", "point", "conjunctive"}
        assert all(m.results_agree for m in measurements)
        assert all(m.speedup_vs_best > 0.2 for m in measurements)
        by_class = {m.query_class: m for m in measurements}
        # Plan choice at tiny scale: the complete index must serve colC.
        assert by_class["single"].chosen == "idx_colC_btree"
        assert by_class["point"].chosen == "idx_colC_btree"


@pytest.mark.bench_smoke
class TestQueryManySmokeRun:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_batched_queries_agree_with_loop(self, scheme):
        """``execute_many`` equals the ``execute`` loop.

        Tiny-scale race over every mechanism and batch class; the loose
        throughput floor only catches the batch path degenerating into a
        hidden per-query pipeline (the 3x acceptance target applies to the
        full-scale standalone run gated in CI).
        """
        measurements = run_query_throughput_suite(
            num_tuples=SMOKE_ROWS, selectivity=0.01, batch_size=12,
            rounds=2, pointer_schemes=(scheme,),
        )
        assert {m.batch_class for m in measurements} == {
            "range", "point", "conjunctive", "mixed"}
        assert {m.mechanism for m in measurements} == {
            "HERMIT", "Baseline", "Sorted", "CM"}
        assert all(m.results_agree for m in measurements)
        assert all(m.batched_vs_loop > 0.3 for m in measurements)
        range_results = [m for m in measurements
                         if m.batch_class == "range"]
        assert all(m.total_results > 0 for m in range_results)
