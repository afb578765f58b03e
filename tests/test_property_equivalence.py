"""Property-based equivalence tests.

The central correctness invariant of the paper: for any data distribution,
any noise, any predicate and any interleaving of maintenance operations,
Hermit returns *exactly* the same tuples as the conventional B+-tree secondary
index and as a brute-force scan.  Correlation Maps must satisfy the same
invariant (both mechanisms remove their false positives by validation).

A second invariant guards the two read pipelines: for any predicate and
either pointer scheme, the single-request pipeline (``lookup_range`` /
``lookup_point``), the segmented batch pipeline (``lookup_range_many``) and the
brute-force mask must return exactly the same sorted int64 locations, for
Hermit, the Baseline (on a B+-tree and on a sorted column) and CM alike —
whichever form the batch's bounds arrive in.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.correlation_maps import CorrelationMap
from repro.baselines.secondary import BaselineSecondaryIndex
from repro.core.config import TRSTreeConfig
from repro.core.hermit import HermitIndex
from repro.index.base import KeyRange, KeyRanges
from repro.index.bptree import BPlusTree
from repro.index.sorted_column import SortedColumnIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.storage.table import Table

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def build_table(targets: list[float], hosts: list[float]) -> Table:
    table = Table(numeric_schema("t", ["pk", "host", "target"], primary_key="pk"))
    count = len(targets)
    table.insert_many({
        "pk": np.arange(count, dtype=np.float64),
        "host": np.asarray(hosts, dtype=np.float64),
        "target": np.asarray(targets, dtype=np.float64),
    })
    return table


def build_mechanisms(table: Table, scheme: PointerScheme):
    primary = BPlusTree()
    host_index = BPlusTree()
    slots, pks, hosts = table.project(["pk", "host"])
    primary.insert_many(pks, slots)
    tids = slots if scheme is PointerScheme.PHYSICAL else pks
    host_index.insert_many(hosts, tids)
    hermit = HermitIndex(table, "target", "host", host_index,
                         primary_index=primary, pointer_scheme=scheme,
                         config=TRSTreeConfig(min_split_size=8))
    hermit.build()
    baseline = BaselineSecondaryIndex(table, "target", primary_index=primary,
                                      pointer_scheme=scheme)
    baseline.build()
    domain = float(np.ptp(hosts)) if len(hosts) else 1.0
    cm = CorrelationMap(table, "target", "host", host_index,
                        target_bucket_width=max(1e-6, float(np.ptp(
                            table.column_array("target")) or 1.0) / 16),
                        host_bucket_width=max(1e-6, domain / 16 or 1.0),
                        primary_index=primary, pointer_scheme=scheme)
    cm.build()
    sorted_baseline = BaselineSecondaryIndex(
        table, "target", primary_index=primary, pointer_scheme=scheme,
        index=SortedColumnIndex())
    sorted_baseline.build()
    return hermit, baseline, cm, sorted_baseline


def brute_force_array(table: Table, low: float, high: float) -> np.ndarray:
    """The reference answer: one NumPy mask over the live rows, ascending."""
    slots, targets = table.project(["target"])
    return slots[(targets >= low) & (targets <= high)].astype(np.int64)


def brute_force(table: Table, low: float, high: float) -> set[int]:
    return set(brute_force_array(table, low, high).tolist())


correlated_data = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=5,
    max_size=300,
)

predicate_bounds = st.tuples(
    st.floats(min_value=-100.0, max_value=1100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
)


class TestLookupEquivalence:
    @SETTINGS
    @given(correlated_data, predicate_bounds,
           st.sampled_from([PointerScheme.PHYSICAL, PointerScheme.LOGICAL]))
    def test_hermit_baseline_cm_and_scan_agree(self, rows, bounds, scheme):
        """All three mechanisms return exactly the brute-force answer."""
        targets = [t for t, _, _ in rows]
        hosts = [
            (3.0 * t - 7.0 + (noise if is_noisy else 0.0))
            for t, noise, is_noisy in rows
        ]
        table = build_table(targets, hosts)
        hermit, baseline, cm, _ = build_mechanisms(table, scheme)
        low, width = bounds
        high = low + width
        expected = brute_force(table, low, high)
        assert set(hermit.lookup_range(low, high).locations) == expected
        assert set(baseline.lookup_range(low, high).locations) == expected
        assert set(cm.lookup_range(low, high).locations) == expected

    @SETTINGS
    @given(correlated_data)
    def test_point_lookups_agree_on_every_existing_value(self, rows):
        targets = [t for t, _, _ in rows]
        hosts = [2.0 * t + 1.0 + (n if flag else 0.0) for t, n, flag in rows]
        table = build_table(targets, hosts)
        hermit, baseline, _, _ = build_mechanisms(table, PointerScheme.PHYSICAL)
        for value in set(targets[:20]):
            expected = brute_force(table, value, value)
            assert set(hermit.lookup_point(value).locations) == expected
            assert set(baseline.lookup_point(value).locations) == expected


class TestSingleBatchEquivalence:
    """single == batch == brute-force mask, per mechanism and pointer scheme."""

    @SETTINGS
    @given(correlated_data,
           st.lists(predicate_bounds, min_size=1, max_size=5),
           st.sampled_from([PointerScheme.PHYSICAL, PointerScheme.LOGICAL]))
    def test_range_pipelines_agree(self, rows, bounds_list, scheme):
        targets = [t for t, _, _ in rows]
        hosts = [
            (3.0 * t - 7.0 + (noise if is_noisy else 0.0))
            for t, noise, is_noisy in rows
        ]
        table = build_table(targets, hosts)
        predicates = [(low, low + width) for low, width in bounds_list]
        # The same batch as KeyRange objects, as reversed (high, low) pairs
        # and as one KeyRanges: lookup_range_many must not tell them apart.
        forms = [
            [KeyRange(low, high) for low, high in predicates],
            [(high, low) for low, high in predicates],
            KeyRanges([low for low, _ in predicates],
                      [high for _, high in predicates]),
        ]
        for mechanism in build_mechanisms(table, scheme):
            batch = mechanism.lookup_range_many(predicates)
            for form in forms:
                other = mechanism.lookup_range_many(form)
                assert len(other.locations_per_query) == len(predicates)
                for found, expected in zip(other.locations_per_query,
                                           batch.locations_per_query):
                    assert np.array_equal(found, expected)
                assert other.breakdown.candidates == batch.breakdown.candidates
            assert len(batch.locations_per_query) == len(predicates)
            for (low, high), batched in zip(predicates,
                                            batch.locations_per_query):
                single = mechanism.lookup_range(low, high).locations
                expected = brute_force_array(table, low, high)
                for found in (single, batched):
                    assert found.dtype == np.int64
                    assert np.array_equal(found, expected)
            assert batch.breakdown.lookups == len(predicates)
            assert batch.total_results == sum(
                len(locations) for locations in batch.locations_per_query
            )

    @SETTINGS
    @given(correlated_data,
           st.sampled_from([PointerScheme.PHYSICAL, PointerScheme.LOGICAL]))
    def test_point_pipelines_agree(self, rows, scheme):
        targets = [t for t, _, _ in rows]
        hosts = [2.0 * t + 1.0 + (n if flag else 0.0) for t, n, flag in rows]
        table = build_table(targets, hosts)
        values = sorted(set(targets[:10]))
        for mechanism in build_mechanisms(table, scheme):
            batch = mechanism.lookup_range_many([(v, v) for v in values])
            for value, batched in zip(values, batch.locations_per_query):
                single = mechanism.lookup_point(value).locations
                expected = brute_force_array(table, value, value)
                assert np.array_equal(single, expected)
                assert np.array_equal(batched, expected)


class TestMaintenanceEquivalence:
    @SETTINGS
    @given(
        correlated_data,
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]),
                      st.floats(0.0, 1000.0, allow_nan=False),
                      st.floats(-2000.0, 2000.0, allow_nan=False)),
            max_size=40,
        ),
        predicate_bounds,
    )
    def test_equivalence_survives_maintenance(self, rows, operations, bounds):
        """Hermit stays exact through arbitrary insert/delete interleavings."""
        targets = [t for t, _, _ in rows]
        hosts = [1.5 * t + 2.0 + (n if flag else 0.0) for t, n, flag in rows]
        table = build_table(targets, hosts)
        hermit, baseline, _, _ = build_mechanisms(table,
                                                  PointerScheme.PHYSICAL)
        host_index = hermit.host_index
        next_pk = 10_000.0
        live = [int(s) for s in table.live_slots()]

        for action, target_value, host_value in operations:
            if action == "insert":
                row = {"pk": next_pk, "host": host_value, "target": target_value}
                next_pk += 1
                location = int(table.insert(row))
                host_index.insert(host_value, location)
                hermit.insert(row, location)
                baseline.insert(row, location)
                live.append(location)
            elif live:
                location = live.pop(0)
                row = table.fetch(location)
                hermit.delete(row, location)
                baseline.delete(row, location)
                host_index.delete(row["host"], location)
                table.delete(location)

        low, width = bounds
        high = low + width
        expected = brute_force(table, low, high)
        assert set(hermit.lookup_range(low, high).locations) == expected
        assert set(baseline.lookup_range(low, high).locations) == expected
