"""Concurrency tests for the serving front end (``pytest -m serving``).

Three layers, bottom up:

* **EpochManager** — the reader-writer protocol in isolation: shared
  reads, exclusive writes, per-thread reentrancy, writer preference, the
  read-to-write upgrade rejection, and one-epoch-per-outermost-write.
* **No torn reads** — a writer thread mutates the database in all-or-
  nothing batches while reader threads hammer coalesced and per-call
  reads; every observed result must correspond to a batch boundary, never
  a half-applied mutation.
* **The server** — one-flush coalescing into shared plan groups, a bad
  request failing only itself, the coalescing window adaptation,
  :class:`RequestFuture` semantics and close/shutdown behaviour.  That
  served answers equal the model's for every mechanism and both pointer
  schemes is the ``served`` cell of the state machine in
  ``test_engine_oracle``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, QueryResult
from repro.errors import (
    CatalogError,
    ConcurrencyError,
    ServingError,
)
from repro.engine.epochs import EpochManager
from repro.serving import RequestFuture, Server
from repro.serving.server import (
    GROW_FACTOR,
    INITIAL_WINDOW,
    MAX_BATCH,
    MAX_WINDOW,
    MIN_WINDOW,
    SHRINK_FACTOR,
    TARGET_BATCH,
)
from repro.storage.schema import numeric_schema

from reference import assert_locations

pytestmark = pytest.mark.serving


def build_database(rows: int = 2_000, seed: int = 7) -> tuple[Database, str]:
    """A (pk, host, target, payload) table with a sorted index on target."""
    rng = np.random.default_rng(seed)
    target = rng.uniform(0.0, 1_000.0, size=rows)
    database = Database()
    database.create_table(numeric_schema(
        "t", ["pk", "host", "target", "payload"], primary_key="pk"))
    database.insert_many("t", {
        "pk": np.arange(rows, dtype=np.float64),
        "host": 2.0 * target + 10.0,
        "target": target,
        "payload": rng.uniform(0.0, 1.0, size=rows),
    })
    database.create_index("idx_target", "t", "target",
                          method=IndexMethod.BTREE)
    return database, "t"


class TestEpochManager:
    def test_read_yields_current_epoch_and_write_bumps(self):
        epochs = EpochManager()
        with epochs.read() as epoch:
            assert epoch == 0
        with epochs.write() as epoch:
            assert epoch == 1  # the epoch this write commits as
        assert epochs.current == 1
        with epochs.read() as epoch:
            assert epoch == 1

    def test_nested_write_bumps_once(self):
        epochs = EpochManager()
        with epochs.write():
            with epochs.write():
                pass
            assert epochs.current == 0  # still inside the outermost write
        assert epochs.current == 1

    def test_read_inside_write_is_free(self):
        epochs = EpochManager()
        with epochs.write() as write_epoch:
            with epochs.read() as read_epoch:
                # The writer reads its own in-progress state.
                assert read_epoch == write_epoch - 1

    def test_upgrade_raises_concurrency_error(self):
        epochs = EpochManager()
        with epochs.read():
            with pytest.raises(ConcurrencyError):
                with epochs.write():
                    pass
        # The failed upgrade must not leave the manager wedged.
        with epochs.write():
            pass
        assert epochs.current == 1

    def test_write_excludes_reads(self):
        epochs = EpochManager()
        observed: list[int] = []
        release = threading.Event()
        in_write = threading.Event()

        def writer():
            with epochs.write():
                in_write.set()
                release.wait(timeout=5.0)

        def reader():
            with epochs.read() as epoch:
                observed.append(epoch)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert in_write.wait(timeout=5.0)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        time.sleep(0.02)
        assert observed == []  # reader is blocked behind the writer
        release.set()
        writer_thread.join(timeout=5.0)
        reader_thread.join(timeout=5.0)
        assert observed == [1]  # reader ran after the commit, sees epoch 1

    def test_waiting_writer_blocks_new_readers(self):
        epochs = EpochManager()
        sequence: list[str] = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def long_reader():
            with epochs.read():
                reader_in.set()
                release_reader.wait(timeout=5.0)

        def writer():
            with epochs.write():
                sequence.append("write")

        def late_reader():
            with epochs.read():
                sequence.append("read")

        first = threading.Thread(target=long_reader)
        first.start()
        assert reader_in.wait(timeout=5.0)
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.02)  # let the writer reach the wait queue
        late = threading.Thread(target=late_reader)
        late.start()
        time.sleep(0.02)
        release_reader.set()
        for thread in (first, writer_thread, late):
            thread.join(timeout=5.0)
        # Writer preference: the queued writer beat the late reader.
        assert sequence == ["write", "read"]


def started(target, *args) -> threading.Thread:
    """A daemon thread: one stuck on a lost wake-up cannot hang the run."""
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.mark.parametrize("debug", [False, True], ids=["lean", "debug"])
class TestEpochWakeUps:
    """A read that leaves wakes the writers only when it is the last reader
    out and a writer waits; no such wake-up may be lost.  Every wait has a
    timeout, so a lost one fails the test instead of hanging it."""

    def test_writer_behind_readers_acquires_after_the_last(self, debug):
        epochs = EpochManager(debug=debug)
        readers = 4
        inside = threading.Barrier(readers + 1, timeout=5.0)
        leave = [threading.Event() for _ in range(readers)]
        wrote = threading.Event()

        def reader(position):
            with epochs.read():
                inside.wait()
                leave[position].wait(timeout=5.0)

        def writer():
            with epochs.write():
                wrote.set()

        reader_threads = [started(reader, position)
                          for position in range(readers)]
        inside.wait()
        writer_thread = started(writer)
        assert wait_until(lambda: epochs._waiting_writers == 1)
        for position in range(readers - 1):
            leave[position].set()
            reader_threads[position].join(timeout=5.0)
        assert not wrote.wait(timeout=0.05)  # one reader still holds
        leave[-1].set()
        assert wrote.wait(timeout=5.0), "the last reader's wake-up was lost"
        writer_thread.join(timeout=5.0)
        assert not any(thread.is_alive()
                       for thread in reader_threads + [writer_thread])
        assert epochs.current == 1

    def test_readers_behind_a_waiting_writer_run_after_its_commit(self,
                                                                  debug):
        epochs = EpochManager(debug=debug)
        reader_in, release = threading.Event(), threading.Event()
        order: list[str] = []

        def first_reader():
            with epochs.read():
                reader_in.set()
                release.wait(timeout=5.0)

        def writer():
            with epochs.write():
                order.append("write")

        def late_reader():
            with epochs.read() as epoch:
                order.append(f"read@{epoch}")

        first = started(first_reader)
        assert reader_in.wait(timeout=5.0)
        writer_thread = started(writer)
        assert wait_until(lambda: epochs._waiting_writers == 1)
        late = [started(late_reader) for _ in range(3)]
        time.sleep(0.02)
        assert order == []  # queued behind the waiting writer
        release.set()
        for thread in [first, writer_thread, *late]:
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "a queued thread was never woken"
        assert order == ["write"] + ["read@1"] * 3

    def test_nested_reads_release_once(self, debug):
        epochs = EpochManager(debug=debug)
        wrote = threading.Event()

        def writer():
            with epochs.write():
                wrote.set()

        with epochs.read():
            with epochs.read():
                pass
            # The inner exit must not have released the outer read.
            writer_thread = started(writer)
            assert wait_until(lambda: epochs._waiting_writers == 1)
            assert not wrote.wait(timeout=0.05)
        assert wrote.wait(timeout=5.0)
        writer_thread.join(timeout=5.0)
        assert epochs._active_readers == 0
        with epochs.write() as epoch:  # nothing left holding the read side
            assert epoch == 2


class TestNoTornReads:
    def test_writer_interleaving_never_tears_coalesced_reads(self):
        """All-or-nothing batches stay all-or-nothing under concurrency.

        The writer appends rows in batches of a fixed size with a marker
        value on the indexed column; a torn read (table updated, index
        not, or a batch half-visible) would surface as a marker count
        that is not a multiple of the batch size.
        """
        database, table = build_database(rows=1_000)
        batch = 50
        marker = 5_000.0  # outside the initial target domain
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            pk = 1_000
            for _ in range(20):
                database.insert_many(table, {
                    "pk": np.arange(pk, pk + batch, dtype=np.float64),
                    "host": np.full(batch, marker * 2.0),
                    "target": np.full(batch, marker),
                    "payload": np.zeros(batch),
                })
                pk += batch
                time.sleep(0.001)
            stop.set()

        request = QueryRequest.point(table, "target", marker)

        def reader():
            while not stop.is_set():
                results = database.execute_many([request] * 4)
                epochs = {result.epoch for result in results}
                if len(epochs) != 1:
                    failures.append(f"batch spanned epochs {epochs}")
                counts = {len(result.locations) for result in results}
                if len(counts) != 1:
                    failures.append(f"batch disagreed on counts {counts}")
                count = counts.pop()
                if count % batch != 0:
                    failures.append(f"torn read: {count} marker rows")

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=30.0)
        for thread in readers:
            thread.join(timeout=30.0)
        assert not failures, failures[:5]
        final = database.execute(request)
        assert len(final.locations) == 20 * batch

    def test_server_reads_stay_consistent_under_writes(self):
        """Coalesced server reads under a concurrent writer never tear."""
        database, table = build_database(rows=1_000)
        batch = 40
        marker = 5_000.0
        request = QueryRequest.point(table, "target", marker)
        with Server(database) as server:
            futures = []
            pk = 1_000
            for _ in range(15):
                futures.extend(server.submit(request) for _ in range(8))
                database.insert_many(table, {
                    "pk": np.arange(pk, pk + batch, dtype=np.float64),
                    "host": np.full(batch, marker * 2.0),
                    "target": np.full(batch, marker),
                    "payload": np.zeros(batch),
                })
                pk += batch
            counts = [len(future.result(timeout=30.0).locations)
                      for future in futures]
        assert all(count % batch == 0 for count in counts), counts
        assert len(database.execute(request).locations) == 15 * batch


def submit_in_one_flush(server: Server,
                        requests: list[QueryRequest]) -> list[RequestFuture]:
    """Submit while the event loop is held, so one flush drains them all."""
    held, holding = threading.Event(), threading.Event()

    def hold() -> None:
        holding.set()
        held.wait(timeout=30.0)

    server._loop.call_soon_threadsafe(hold)
    assert holding.wait(timeout=30.0)
    futures = [server.submit(request) for request in requests]
    held.set()
    return futures


class TestServerEquivalence:
    DATABASE, TABLE = build_database()

    def test_server_query_convenience(self):
        request = QueryRequest.range(self.TABLE, "target", 100.0, 120.0)
        with Server(self.DATABASE) as server:
            result = server.query(request, timeout=30.0)
        assert_locations(result, self.DATABASE.execute(request).locations)

    def test_batch_failure_propagates_to_futures(self):
        with Server(self.DATABASE) as server:
            future = server.submit(QueryRequest.point("no_such_table",
                                                      "target", 1.0))
            assert future.exception(timeout=30.0) is not None
            with pytest.raises(CatalogError):
                future.result(timeout=30.0)

    def test_one_bad_request_does_not_fail_its_batch_mates(self, monkeypatch):
        resolutions: dict[int, int] = {}
        resolve = RequestFuture._resolve

        def counting(future, result, error):
            resolutions[id(future)] = resolutions.get(id(future), 0) + 1
            resolve(future, result, error)

        monkeypatch.setattr(RequestFuture, "_resolve", counting)
        requests = [QueryRequest.range(self.TABLE, "target", 10.0 * i,
                                       10.0 * i + 25.0) for i in range(16)]
        requests[5] = QueryRequest.point("no_such_table", "target", 1.0)
        with Server(self.DATABASE) as server:
            futures = submit_in_one_flush(server, requests)
            errors = [future.exception(timeout=30.0) for future in futures]
            stats = server.stats()
        assert stats.batches == 1 and stats.max_batch == 16
        assert [type(error) for error in errors if error is not None] == [
            CatalogError]
        assert isinstance(errors[5], CatalogError)
        for position, (request, future) in enumerate(zip(requests, futures)):
            if position != 5:
                assert_locations(future.result(timeout=0),
                                 self.DATABASE.execute(request).locations)
        assert resolutions == {id(future): 1 for future in futures}

    def test_requests_coalesce_into_shared_plan_groups(self):
        request = QueryRequest.point(self.TABLE, "target", 250.0)
        with Server(self.DATABASE) as server:
            futures = submit_in_one_flush(server, [request] * 16)
            results = [future.result(timeout=30.0) for future in futures]
            stats = server.stats()
        assert stats.batches == 1
        assert stats.max_batch == 16
        assert all(result.group_size == 16 for result in results)

    def test_wakeup_that_finds_the_queue_drained_does_not_strand_requests(self):
        # The state a flush leaves when it drains a request between
        # submit's append and its _armed test: submit then sets _armed and
        # pokes a _wakeup that has nothing to arm.
        request = QueryRequest.point(self.TABLE, "target", 250.0)
        with Server(self.DATABASE) as server:
            ran = threading.Event()
            server._armed = True
            server._loop.call_soon_threadsafe(server._wakeup)
            server._loop.call_soon_threadsafe(ran.set)
            assert ran.wait(timeout=30.0)
            assert not server._armed
            result = server.submit(request).result(timeout=5.0)
        assert_locations(result, self.DATABASE.execute(request).locations)

    def test_submit_after_close_raises(self):
        server = Server(self.DATABASE)
        server.close()
        with pytest.raises(ServingError):
            server.submit(QueryRequest.point(self.TABLE, "target", 1.0))
        server.close()  # idempotent


class TestWindowAdaptation:
    def test_window_grows_under_load_and_shrinks_when_idle(self):
        """Flushes of at least TARGET_BATCH requests grow the window up to
        MAX_WINDOW, single-request ones shrink it down to MIN_WINDOW, and
        sizes in between leave it alone."""
        with Server(self.database()) as server:
            window = server.stats().window
            assert window == INITIAL_WINDOW
            server._adapt_window(TARGET_BATCH - 1)
            assert server.stats().window == window
            server._adapt_window(TARGET_BATCH)
            assert server.stats().window == window * GROW_FACTOR
            for _ in range(16):
                server._adapt_window(MAX_BATCH)
            assert server.stats().window == MAX_WINDOW
            server._adapt_window(1)
            assert server.stats().window == MAX_WINDOW * SHRINK_FACTOR
            for _ in range(16):
                server._adapt_window(0)
            assert server.stats().window == MIN_WINDOW

    def test_window_respects_bounds(self):
        """No sequence of flush sizes takes the window outside
        [MIN_WINDOW, MAX_WINDOW]."""
        sizes = np.random.default_rng(3).choice(
            [0, 1, TARGET_BATCH - 1, TARGET_BATCH, MAX_BATCH], size=200)
        with Server(self.database()) as server:
            for size in sizes.tolist():
                server._adapt_window(size)
                assert MIN_WINDOW <= server.stats().window <= MAX_WINDOW

    @staticmethod
    def database() -> Database:
        return build_database(rows=50)[0]


class TestRequestFuture:
    def test_resolve_unblocks_waiter_and_runs_callbacks(self):
        future = RequestFuture()
        seen: list[QueryResult] = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        result = QueryResult(locations=np.array([1, 2, 3], dtype=np.int64))

        waiter_value = []

        def waiter():
            waiter_value.append(future.result(timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.01)
        future._resolve(result, None)
        thread.join(timeout=5.0)
        assert waiter_value == [result]
        assert seen == [result]
        assert future.done()
        assert future.exception() is None

    def test_callback_after_done_runs_immediately(self):
        future = RequestFuture()
        future._resolve(QueryResult(), None)
        seen = []
        future.add_done_callback(lambda f: seen.append(True))
        assert seen == [True]

    def test_timeout_raises(self):
        future = RequestFuture()
        with pytest.raises(FutureTimeoutError):
            future.result(timeout=0.01)

    def test_error_resolution(self):
        future = RequestFuture()
        error = ValueError("batch failed")
        future._resolve(None, error)
        assert future.exception() is error
        with pytest.raises(ValueError):
            future.result()
