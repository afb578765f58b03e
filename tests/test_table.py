"""Unit tests for the in-memory columnar table."""

import numpy as np
import pytest

from repro.errors import SchemaError, StorageError, TupleNotFoundError
from repro.storage.schema import numeric_schema
from repro.storage.table import Table


@pytest.fixture
def table() -> Table:
    return Table(numeric_schema("t", ["pk", "x", "y"], primary_key="pk"))


def insert_row(table: Table, row: dict) -> int:
    """One row in: a batch of one, as ``Database.insert`` writes it."""
    (slot,) = table.insert_many({name: [value]
                                 for name, value in row.items()})
    return int(slot)


def state(table: Table) -> tuple:
    """Slots, liveness and running column statistics."""
    return (table.num_slots, table.num_rows, table.live_slots().tolist(),
            {name: (stats.count, stats.minimum, stats.maximum)
             for name, stats in table.statistics.items()})


class TestInsertFetch:
    def test_insert_and_fetch_roundtrip(self, table):
        location = insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        assert table.fetch(location) == {"pk": 1.0, "x": 2.0, "y": 3.0}
        assert table.num_rows == 1

    def test_insert_many_roundtrip(self, table):
        locations = table.insert_many({
            "pk": np.arange(10.0), "x": np.arange(10.0) * 2, "y": np.zeros(10),
        })
        assert len(locations) == 10
        assert table.num_rows == 10
        assert table.value(locations[3], "x") == 6.0

    def test_insert_many_rejects_unequal_lengths(self, table):
        with pytest.raises(StorageError):
            table.insert_many({"pk": [1.0], "x": [1.0, 2.0], "y": [0.0]})

    def test_insert_many_rejects_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.insert_many({"pk": [1.0], "x": [1.0], "y": [1.0], "z": [1.0]})

    @pytest.mark.parametrize("row, error", [
        ({"pk": 2.0, "x": 1.0, "y": 1.0, "z": 1.0}, SchemaError),
        ({"pk": 2.0, "y": 1.0}, SchemaError),
        ({"pk": 2.0, "x": "not-a-number", "y": 1.0}, SchemaError),
    ], ids=["unknown_column", "missing_column", "uncoercible_value"])
    def test_rejected_row_changes_nothing(self, table, row, error):
        """A rejected one-row batch leaves slots, liveness and the column
        statistics exactly as they were."""
        insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        before = state(table)
        with pytest.raises(error):
            insert_row(table, row)
        assert state(table) == before
        assert insert_row(table, {"pk": 2.0, "x": 4.0, "y": 5.0}) == 1

    def test_insert_many_empty_is_noop(self, table):
        for batch in ({}, {"pk": [], "x": [], "y": []}):
            slots = table.insert_many(batch)
            assert slots.dtype == np.int64 and slots.size == 0
        assert table.num_slots == 0

    def test_insert_many_returns_the_appended_slots_as_one_array(self, table):
        insert_row(table, {"pk": 0.0, "x": 0.0, "y": 0.0})
        slots = table.insert_many({"pk": np.arange(1.0, 4.0),
                                   "x": np.zeros(3), "y": np.zeros(3)})
        assert isinstance(slots, np.ndarray) and slots.dtype == np.int64
        assert slots.tolist() == [1, 2, 3]
        assert table.values(slots, "pk").tolist() == [1.0, 2.0, 3.0]

    def test_capacity_growth_preserves_data(self, table):
        locations = [insert_row(table, {"pk": float(i), "x": float(i), "y": 0.0})
                     for i in range(500)]
        assert table.num_rows == 500
        assert table.value(locations[499], "pk") == 499.0
        assert table.value(locations[0], "pk") == 0.0


class TestDeleteUpdate:
    def test_delete_marks_slot_dead(self, table):
        location = insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        table.delete(location)
        assert table.num_rows == 0
        assert not table.is_live(location)
        with pytest.raises(TupleNotFoundError):
            table.fetch(location)

    def test_double_delete_raises(self, table):
        location = insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        table.delete(location)
        with pytest.raises(TupleNotFoundError):
            table.delete(location)

    def test_update_changes_values(self, table):
        location = insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        table.update(location, {"x": 20.0})
        assert table.fetch(location)["x"] == 20.0

    def test_update_unknown_column_raises(self, table):
        location = insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        with pytest.raises(StorageError):
            table.update(location, {"zzz": 1.0})

    def test_is_live_out_of_range(self, table):
        assert not table.is_live(99)


class TestScans:
    def test_live_slots_skip_deleted(self, table):
        locations = table.insert_many({
            "pk": np.arange(5.0), "x": np.arange(5.0), "y": np.arange(5.0),
        })
        table.delete(locations[2])
        assert list(table.live_slots()) == [0, 1, 3, 4]

    def test_column_array_restricted_to_live(self, table):
        locations = table.insert_many({
            "pk": np.arange(4.0), "x": np.array([10.0, 11.0, 12.0, 13.0]),
            "y": np.zeros(4),
        })
        table.delete(locations[1])
        assert list(table.column_array("x")) == [10.0, 12.0, 13.0]

    def test_project_returns_aligned_arrays(self, table):
        table.insert_many({"pk": np.arange(3.0), "x": np.arange(3.0) * 2,
                           "y": np.arange(3.0) * 3})
        slots, xs, ys = table.project(["x", "y"])
        assert list(slots) == [0, 1, 2]
        assert list(xs) == [0.0, 2.0, 4.0]
        assert list(ys) == [0.0, 3.0, 6.0]

    def test_scan_projects_requested_columns(self, table):
        insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        rows = list(table.scan(["x"]))
        assert rows == [(0, {"x": 2.0})]

    def test_values_vectorised_fetch(self, table):
        table.insert_many({"pk": np.arange(5.0), "x": np.arange(5.0) + 100,
                           "y": np.zeros(5)})
        values = table.values([1, 3], "x")
        assert list(values) == [101.0, 103.0]


class TestVectorizedValidation:
    def test_liveness_mask(self, table):
        locations = table.insert_many({
            "pk": np.arange(5.0), "x": np.arange(5.0), "y": np.zeros(5),
        })
        table.delete(locations[2])
        mask = table.liveness(np.array([0, 1, 2, 3, 4]))
        assert mask.tolist() == [True, True, False, True, True]

    def test_liveness_out_of_range_is_dead(self, table):
        insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        mask = table.liveness(np.array([-1, 0, 7]))
        assert mask.tolist() == [False, True, False]

    def test_liveness_empty_input(self, table):
        assert table.liveness(np.array([], dtype=np.int64)).tolist() == []

    def test_filter_in_range_matches_scalar_validation(self, table):
        table.insert_many({
            "pk": np.arange(20.0), "x": np.arange(20.0) * 10, "y": np.zeros(20),
        })
        table.delete(5)
        slots = np.array([0, 3, 5, 7, 12, 19, 99])
        result = table.filter_in_range(slots, "x", 30.0, 130.0)
        expected = [
            int(slot) for slot in slots
            if table.is_live(slot) and 30.0 <= table.value(int(slot), "x") <= 130.0
        ]
        assert result.tolist() == expected  # [3, 7, 12]; order preserved

    def test_filter_in_range_empty_input(self, table):
        insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        result = table.filter_in_range(np.array([], dtype=np.int64), "x", 0, 10)
        assert result.size == 0

    def test_filter_in_range_unknown_column_raises(self, table):
        insert_row(table, {"pk": 1.0, "x": 2.0, "y": 3.0})
        with pytest.raises(SchemaError):
            table.filter_in_range(np.array([0]), "nope", 0.0, 1.0)


class TestStatisticsAndMemory:
    def test_value_range_tracks_min_max(self, table):
        table.insert_many({"pk": np.arange(3.0), "x": np.array([5.0, -1.0, 7.0]),
                           "y": np.zeros(3)})
        assert table.value_range("x") == (-1.0, 7.0)

    def test_memory_grows_with_rows(self, table):
        before = table.memory_bytes()
        table.insert_many({"pk": np.arange(100.0), "x": np.zeros(100),
                           "y": np.zeros(100)})
        assert table.memory_bytes() > before

    def test_memory_report_has_table_component(self, table):
        report = table.memory_report()
        assert "table" in report.components
        assert report.total_bytes == table.memory_bytes()
