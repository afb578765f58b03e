"""Regression tests: rejected writes must leave no partial state behind.

Previously a ``Database.update`` whose second change was invalid could apply
the first change to the base table while every secondary mechanism kept the
old value — the index and the table silently diverged, and under logical
pointers the row could vanish from query results.  Writes are now validated
and coerced up front, before the table, the primary index, any mechanism or
the write-ahead log observes anything.

Also covers the typed-error contract of the disk substrate: ``HeapFile``
operations on dead or out-of-range locations raise ``TupleNotFoundError``
(a ``StorageError``), never a page-level internal error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability.config import DurabilityConfig
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import SchemaError, StorageError, TupleNotFoundError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap_file import HeapFile
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import Column, DataType, TableSchema, numeric_schema


def build_db(pointer_scheme=PointerScheme.PHYSICAL,
             durability: DurabilityConfig | None = None) -> Database:
    database = Database(pointer_scheme=pointer_scheme, durability=durability)
    schema = TableSchema("t", [
        Column("pk", DataType.INT64),
        Column("a", DataType.FLOAT64),
        Column("b", DataType.FLOAT64),
        Column("s", DataType.STRING, nullable=True),
    ], primary_key="pk")
    database.create_table(schema)
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(0.0, 1000.0, 150))
    database.insert_many("t", {
        "pk": np.arange(150, dtype=np.int64),
        "a": a,
        "b": 2.0 * a + rng.normal(0.0, 3.0, 150),
        "s": [f"r{i}" for i in range(150)],
    })
    database.create_index("ix_a", "t", "a")
    database.create_index("ix_b", "t", "b", method=IndexMethod.HERMIT,
                          host_column="a")
    return database


def state_fingerprint(database: Database):
    table = database.table("t")
    predicate_a = RangePredicate("a", 100.0, 800.0)
    predicate_b = RangePredicate("b", 200.0, 1500.0)
    return (
        table.num_rows,
        table.num_slots,
        {name: (s.count, s.minimum, s.maximum)
         for name, s in table.statistics.items()},
        tuple(database.execute(QueryRequest.of("t", predicate_a)).locations),
        tuple(database.execute(QueryRequest.of("t", predicate_b)).locations),
        tuple(database.query_with("t", "ix_b", predicate_b).locations),
        table.fetch(10),
    )


@pytest.mark.parametrize("pointer_scheme",
                         [PointerScheme.PHYSICAL, PointerScheme.LOGICAL])
class TestRejectedWritesAreAtomic:
    def test_update_unknown_column_changes_nothing(self, pointer_scheme):
        """An unknown column is a SchemaError, as it is for an insert."""
        database = build_db(pointer_scheme)
        before = state_fingerprint(database)
        with pytest.raises(SchemaError):
            database.update("t", 10, {"b": 9999.0, "nope": 1.0})
        assert state_fingerprint(database) == before

    @pytest.mark.parametrize("write, error", [
        # the same location listed twice
        (lambda db: db.delete_many("t", [10, 11, 10]), StorageError),
        (lambda db: db.update_many("t", [10, 11, 10],
                                   {"b": [1.0, 2.0, 3.0]}), StorageError),
        # one dead location among live ones
        (lambda db: db.delete_many("t", [10, 20, 11]), TupleNotFoundError),
        (lambda db: db.update_many("t", [10, 20, 11],
                                   {"b": [1.0, 2.0, 3.0]}),
         TupleNotFoundError),
        # one uncoercible value
        (lambda db: db.update_many("t", [10, 11, 12],
                                   {"a": [1.0, 2.0, 3.0],
                                    "b": [1.0, "bad", 3.0]}), SchemaError),
        # one unknown column
        (lambda db: db.update_many("t", [10, 11, 12],
                                   {"b": [1.0, 2.0, 3.0],
                                    "nope": [1.0, 2.0, 3.0]}), SchemaError),
    ], ids=["delete_twice", "update_twice", "delete_dead", "update_dead",
            "update_uncoercible", "update_unknown_column"])
    def test_a_rejected_batch_changes_nothing(self, pointer_scheme, tmp_path,
                                              write, error):
        """A batch is validated whole: one bad row rejects it before the
        table, an index or the write-ahead log sees any of it."""
        database = build_db(pointer_scheme,
                            DurabilityConfig(directory=str(tmp_path)))
        database.delete("t", 20)
        before = state_fingerprint(database)
        wal_bytes = database.durability_stats().wal_bytes
        with pytest.raises(error):
            write(database)
        assert state_fingerprint(database) == before
        assert database.durability_stats().wal_bytes == wal_bytes
        database.check_invariants()

    def test_update_uncoercible_value_changes_nothing(self, pointer_scheme):
        database = build_db(pointer_scheme)
        before = state_fingerprint(database)
        with pytest.raises(SchemaError):
            # the first change is valid; the second must prevent it applying
            database.update("t", 10, {"a": 1.0, "b": "not-a-number"})
        assert state_fingerprint(database) == before

    def test_update_dead_row_changes_nothing(self, pointer_scheme):
        database = build_db(pointer_scheme)
        database.delete("t", 20)
        before = state_fingerprint(database)
        with pytest.raises(TupleNotFoundError):
            database.update("t", 20, {"b": 1.0})
        assert state_fingerprint(database) == before

    def test_delete_dead_row_changes_nothing(self, pointer_scheme):
        database = build_db(pointer_scheme)
        database.delete("t", 20)
        before = state_fingerprint(database)
        with pytest.raises(TupleNotFoundError):
            database.delete("t", 20)
        with pytest.raises(TupleNotFoundError):
            database.delete("t", 10_000)
        assert state_fingerprint(database) == before

    def test_rejected_insert_many_changes_nothing(self, pointer_scheme):
        database = build_db(pointer_scheme)
        before = state_fingerprint(database)
        with pytest.raises(StorageError):
            database.insert_many("t", {"pk": [900, 901], "a": [1.0],
                                       "b": [1.0, 2.0]})
        with pytest.raises(SchemaError):
            database.insert_many("t", {"pk": [900], "a": [1.0],
                                       "b": [2.0], "ghost": [3.0]})
        with pytest.raises(SchemaError):
            database.insert_many("t", {"pk": [900], "a": ["bad"],
                                       "b": [2.0]})
        assert state_fingerprint(database) == before

    def test_update_after_rejection_still_works(self, pointer_scheme):
        """The gate must not poison the row for a subsequent valid write."""
        database = build_db(pointer_scheme)
        with pytest.raises(SchemaError):
            database.update("t", 10, {"b": "bad"})
        database.update("t", 10, {"b": 777.0})
        assert database.table("t").fetch(10)["b"] == 777.0
        predicate = RangePredicate("b", 776.0, 778.0)
        assert 10 in database.execute(QueryRequest.of(
            "t", predicate)).locations


@pytest.mark.parametrize("pointer_scheme",
                         [PointerScheme.PHYSICAL, PointerScheme.LOGICAL])
def test_the_wal_does_not_change_a_write(pointer_scheme, tmp_path):
    """One write path whether or not a log is attached: the same DML ends
    in the same state, down to the stored columns and the statistics."""
    engines = [build_db(pointer_scheme),
               build_db(pointer_scheme,
                        DurabilityConfig(directory=str(tmp_path)))]
    for database in engines:
        database.insert_many("t", {
            "pk": np.arange(150, 154), "a": [10.5, np.nan, 300.0, 7.0],
            "b": [21.0, 9.0, np.nan, 2.7], "s": ["n0", "n1", "n2", "n3"]})
        database.insert("t", {"pk": 154, "a": 2.5, "b": 5.0})
        database.delete("t", 20)
        database.delete_many("t", [30, 31, 152])
        database.update("t", 10, {"b": 1234.5})
        database.update_many("t", [11, 12, 150], {
            "pk": [1011, 1012, 1150], "a": [1.0, np.nan, 3.0],
            "s": ["u0", "u1", "u2"]})
        database.check_invariants()
    without, with_wal = engines
    assert state_fingerprint(with_wal) == state_fingerprint(without)
    snapshots = [database.table("t").snapshot() for database in engines]
    assert snapshots[0].live.tolist() == snapshots[1].live.tolist()
    for name, values in snapshots[0].columns.items():
        assert np.array_equal(values, snapshots[1].columns[name],
                              equal_nan=name != "s"), name
    with_wal.close()


class TestHeapFileTypedErrors:
    def build(self):
        pool = BufferPool(DiskManager(), capacity=8)
        heap = HeapFile(numeric_schema("h", ["pk", "v"], primary_key="pk"),
                        pool)
        locations = heap.insert_many(
            [{"pk": float(i), "v": float(i) * 2.0} for i in range(10)]
        )
        return heap, locations

    def test_fetch_dead_and_out_of_range(self):
        heap, locations = self.build()
        heap.delete(locations[3])
        with pytest.raises(TupleNotFoundError):
            heap.fetch(locations[3])
        with pytest.raises(TupleNotFoundError):
            heap.fetch(10_000_000)
        with pytest.raises(TupleNotFoundError):
            heap.fetch(-1)

    def test_value_dead_and_out_of_range(self):
        heap, locations = self.build()
        heap.delete(locations[3])
        with pytest.raises(TupleNotFoundError):
            heap.value(locations[3], "v")
        with pytest.raises(TupleNotFoundError):
            heap.value(10_000_000, "v")

    def test_delete_dead_and_out_of_range(self):
        heap, locations = self.build()
        heap.delete(locations[3])
        rows_before = heap.num_rows
        with pytest.raises(TupleNotFoundError):
            heap.delete(locations[3])
        with pytest.raises(TupleNotFoundError):
            heap.delete(10_000_000)
        assert heap.num_rows == rows_before

    def test_typed_errors_are_storage_errors(self):
        heap, locations = self.build()
        heap.delete(locations[0])
        with pytest.raises(StorageError):
            heap.fetch(locations[0])
