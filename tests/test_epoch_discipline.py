"""The dynamic epoch-lock discipline checker: seed each violation class
and assert ``EpochManager(debug=True)`` detects it.

Static rule REP003 catches lexical violations on the ``Database``
facade; this suite covers what only a runtime checker can see —
violations through indirection (a helper called under the wrong side),
actual cross-thread lock ordering, and the guard wiring from the
catalog's mutators back to the manager.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.database import Database
from repro.engine.epochs import EpochManager
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import ConcurrencyError, EpochDisciplineError
from repro.storage.schema import numeric_schema

pytestmark = pytest.mark.epoch_discipline


@pytest.fixture(autouse=True)
def fresh_order_tracking():
    """Lock-order edges are process-global; isolate each test."""
    EpochManager.reset_order_tracking()
    yield
    EpochManager.reset_order_tracking()


@pytest.fixture
def debug_db() -> Database:
    database = Database(epoch_debug=True)
    database.create_table(numeric_schema("t", ["id", "v"], "id"))
    database.insert_many("t", {"id": [1.0, 2.0, 3.0],
                               "v": [10.0, 20.0, 30.0]})
    return database


class TestSharedSideWrites:
    def test_catalog_mutation_under_read_raises(self, debug_db):
        with pytest.raises(EpochDisciplineError, match="shared .read. side"):
            with debug_db.epochs.read():
                debug_db.catalog.bump_data_epoch("t")

    def test_dml_under_read_raises_via_guard(self, debug_db):
        # insert_many itself takes the write side, which from inside a
        # read is an upgrade — seeded here through the public API, the
        # way a coalescing handler would actually misuse it.
        with pytest.raises(ConcurrencyError):
            with debug_db.epochs.read():
                debug_db.insert_many("t", {"id": [4.0], "v": [40.0]})

    def test_unlocked_catalog_mutation_raises(self, debug_db):
        with pytest.raises(EpochDisciplineError, match="without holding"):
            debug_db.catalog.bump_data_epoch("t")

    def test_mutation_under_write_is_fine(self, debug_db):
        with debug_db.epochs.write():
            debug_db.catalog.bump_data_epoch("t")

    def test_message_carries_read_acquisition_stack(self, debug_db):
        with pytest.raises(EpochDisciplineError) as info:
            with debug_db.epochs.read():
                debug_db.catalog.bump_data_epoch("t")
        assert "read side acquired at" in str(info.value)
        # The stack should point back into this test.
        assert "test_message_carries_read_acquisition_stack" in str(info.value)


class TestUpgradeAttempts:
    def test_nested_upgrade_raises_discipline_error(self, debug_db):
        with pytest.raises(EpochDisciplineError,
                           match="read-to-write upgrade"):
            with debug_db.epochs.read():
                with debug_db.epochs.write():
                    pass

    def test_upgrade_message_reports_read_stack(self, debug_db):
        with pytest.raises(EpochDisciplineError) as info:
            with debug_db.epochs.read():
                with debug_db.epochs.write():
                    pass
        assert "read side acquired at" in str(info.value)

    def test_non_debug_upgrade_still_concurrency_error(self):
        manager = EpochManager()
        with pytest.raises(ConcurrencyError):
            with manager.read():
                with manager.write():
                    pass

    def test_write_then_read_is_legal(self, debug_db):
        # The reverse nesting (writer reads its own tables) is part of
        # the protocol and must not trip the checker.
        with debug_db.epochs.write():
            with debug_db.epochs.read():
                pass


class TestLockOrderInversions:
    def test_inverted_order_across_threads_raises(self):
        a = EpochManager(debug=True, name="A")
        b = EpochManager(debug=True, name="B")
        with a.read():
            with b.read():
                pass
        caught: list[EpochDisciplineError] = []

        def inverted():
            try:
                with b.read():
                    with a.read():
                        pass
            except EpochDisciplineError as error:
                caught.append(error)

        thread = threading.Thread(target=inverted)
        thread.start()
        thread.join()
        assert len(caught) == 1
        assert "lock-order inversion" in str(caught[0])
        assert "[A]" in str(caught[0]) and "[B]" in str(caught[0])

    def test_consistent_order_is_fine(self):
        a = EpochManager(debug=True, name="A")
        b = EpochManager(debug=True, name="B")
        for _ in range(3):
            with a.read():
                with b.write():
                    pass
            with a.write():
                with b.read():
                    pass

    def test_write_side_inversion_detected(self):
        a = EpochManager(debug=True, name="A")
        b = EpochManager(debug=True, name="B")
        with a.write():
            with b.write():
                pass
        with pytest.raises(EpochDisciplineError,
                           match="lock-order inversion"):
            with b.write():
                with a.write():
                    pass


class TestCleanWorkloads:
    def test_full_dml_query_ddl_workload_is_silent(self, debug_db):
        debug_db.create_index("idx_v", "t", "v")
        debug_db.insert_many("t", {"id": [4.0, 5.0], "v": [40.0, 50.0]})
        location = int(debug_db.execute(QueryRequest.of(
            "t", RangePredicate("id", 2.0, 2.0))).locations[0])
        debug_db.update("t", location, {"v": 21.0})
        debug_db.delete("t", location)
        result = debug_db.execute(QueryRequest.of(
            "t", RangePredicate("v", 0.0, 100.0)))
        assert len(result.locations) == 4
        debug_db.drop_index("t", "idx_v")
        report = debug_db.memory_report()
        assert report.total_bytes > 0

    def test_concurrent_readers_and_writer_under_debug(self, debug_db):
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    debug_db.execute(QueryRequest.of(
                        "t", RangePredicate("id", 0.0, 100.0)))
            except BaseException as error:  # noqa: BLE001 - the test
                # asserts no exception of any kind escapes the workload
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for batch in range(10):
                debug_db.insert_many(
                    "t", {"id": [100.0 + batch], "v": [float(batch)]}
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []

    def test_debug_off_guard_is_noop(self):
        database = Database()
        database.create_table(numeric_schema("t", ["id", "v"], "id"))
        # Unlocked direct catalog mutation: undetected without debug —
        # exactly the lean-path behaviour the default promises.
        database.catalog.bump_data_epoch("t")

    def test_epoch_counting_unchanged_under_debug(self, debug_db):
        before = debug_db.epochs.current
        debug_db.insert_many("t", {"id": [9.0], "v": [90.0]})
        assert debug_db.epochs.current == before + 1
