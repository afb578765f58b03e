"""Unit tests for the analytic memory model."""

import numpy as np
import pytest

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.storage import memory
from repro.storage.memory import BYTES_PER_MB, MemoryReport
from repro.storage.schema import numeric_schema


class TestSizeFunctions:
    def test_btree_scales_with_entries(self):
        small = memory.btree_bytes(1_000)
        large = memory.btree_bytes(100_000)
        assert large > small
        # Per-entry cost should be roughly key + pointer plus node overheads.
        assert large / 100_000 >= memory.KEY_BYTES + memory.POINTER_BYTES

    def test_btree_empty_is_header_only(self):
        assert memory.btree_bytes(0) == memory.NODE_HEADER_BYTES

    def test_hash_table_scales_with_entries(self):
        assert memory.hash_table_bytes(10) < memory.hash_table_bytes(1000)
        assert memory.hash_table_bytes(0) == memory.NODE_HEADER_BYTES

    def test_trs_leaf_much_smaller_than_btree_for_same_data(self):
        # One leaf modelling 1M tuples with 1% outliers vs a complete B+-tree.
        leaf = memory.trs_leaf_bytes(num_outliers=10_000)
        btree = memory.btree_bytes(1_000_000)
        assert leaf < btree / 10

    def test_table_bytes(self):
        assert memory.table_bytes(100, 32) == memory.NODE_HEADER_BYTES + 3200

    def test_trs_internal_bytes_depends_on_fanout(self):
        assert memory.trs_internal_bytes(16) > memory.trs_internal_bytes(4)

    def test_constants_are_the_papers_accounting(self):
        assert (memory.KEY_BYTES, memory.POINTER_BYTES,
                memory.NODE_HEADER_BYTES, memory.HASH_ENTRY_OVERHEAD_BYTES,
                memory.LEAF_MODEL_BYTES) == (8, 8, 24, 16, 40)
        assert memory.btree_bytes(10_000, 32) == 181_984
        assert memory.hash_table_bytes(1_000) == 32_024
        assert memory.trs_leaf_bytes(100) == 3_288
        assert memory.trs_internal_bytes(8) == 104


class TestMemoryReport:
    def test_add_and_total(self):
        report = MemoryReport()
        report.add("table", 10 * BYTES_PER_MB)
        report.add("index", 30 * BYTES_PER_MB)
        report.add("index", 10 * BYTES_PER_MB)
        assert report.total_mb == pytest.approx(50.0)
        assert report.fraction("index") == pytest.approx(0.8)

    def test_fraction_of_missing_label_is_zero(self):
        report = MemoryReport()
        report.add("table", 100)
        assert report.fraction("other") == 0.0

    def test_fraction_with_empty_report(self):
        assert MemoryReport().fraction("x") == 0.0

    def test_merged_combines_components(self):
        first = MemoryReport({"a": 10})
        second = MemoryReport({"a": 5, "b": 1})
        merged = first.merged(second)
        assert merged.components == {"a": 15, "b": 1}
        # Originals untouched.
        assert first.components == {"a": 10}

    def test_repr_contains_total(self):
        report = MemoryReport({"a": int(2 * BYTES_PER_MB)})
        assert "total" in repr(report)


class TestIndexMethodPricing:
    """``memory_report`` prices each method by its own formula: the primary
    index and ``BTREE`` as the B+-tree over the same entries."""

    ROWS = 2_000
    NULL_HOSTS = 20
    OPTIONS = {"hermit": {"host_column": "host"},
               "correlation_map": {"host_column": "host",
                                   "cm_target_bucket_width": 10.0,
                                   "cm_host_bucket_width": 20.0}}

    @pytest.fixture
    def database(self):
        database = Database()
        database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                             primary_key="pk"))
        targets = np.arange(self.ROWS, dtype=np.float64)
        hosts = 2.0 * targets
        hosts[::self.ROWS // self.NULL_HOSTS] = np.nan
        database.insert_many("t", {"pk": targets.copy(), "host": hosts,
                                   "target": targets})
        database.create_index("idx_host", "t", "host", preexisting=True)
        return database

    @pytest.mark.parametrize("method", ["btree", "hermit", "correlation_map"])
    def test_each_method_is_priced_by_its_formula(self, database, method):
        entry = database.create_index("idx_target", "t", "target",
                                      method=IndexMethod(method),
                                      **self.OPTIONS.get(method, {}))
        mechanism = entry.mechanism
        if method == "btree":
            expected = memory.btree_bytes(self.ROWS, 32)
        elif method == "hermit":
            expected = mechanism.trs_tree.memory_bytes()
        else:   # one hash entry per link, plus the NULL-host rows
            expected = (memory.hash_table_bytes(mechanism.num_bucket_links)
                        + len(mechanism._mapping) * memory.NODE_HEADER_BYTES
                        + self.NULL_HOSTS * (memory.KEY_BYTES
                                             + memory.POINTER_BYTES))
        assert mechanism.memory_bytes() == expected
        assert database.memory_report("t").components == {
            "table": database.table("t").memory_bytes(),
            "primary_index": memory.btree_bytes(self.ROWS, 32),
            "existing_indexes": memory.btree_bytes(
                self.ROWS - self.NULL_HOSTS, 32),
            "new_indexes": expected,
        }
