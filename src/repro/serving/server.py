"""The serving front end: group commit for reads.

The engine's batch API (``Database.execute_many``) answers B same-shape
queries for roughly the price of one planner visit and O(1) array passes
per plan group — but only when somebody hands it a batch.  Independent
clients each holding one request cannot exploit it: they would each call
``Database.execute`` and pay full per-call dispatch.  :class:`Server`
closes that gap the way group commit closes it for writes — by *waiting a
very small amount of time on purpose*:

* Every submitted request lands in a shared pending queue — a plain
  ``deque`` whose ``append`` is atomic under the GIL, so *submitting is a
  couple of attribute operations*, not a cross-thread event-loop call.
  Only the first arrival of a window wakes the event loop, which arms a
  flush timer (the *coalescing window*); everything arriving before it
  fires joins the same batch.  Keeping the per-request cost this low
  matters: at the offered rates the open-loop benchmark drives, one
  ``call_soon_threadsafe`` (a lock plus a self-pipe write) per request
  would cost more than the batched execution it enables.
* A flush hands the whole batch to a worker thread, which answers it with
  one ``Database.execute_many`` call — one read-side epoch acquisition,
  one planner visit per plan shape, segmented vectorized execution — and
  fans the per-request results back to their futures.
* The window *adapts*: a flush that caught a healthy batch grows the
  window (more load → more coalescing, bounded by :data:`MAX_WINDOW`); a
  flush that caught a single request shrinks it (idle → latency floor,
  bounded by :data:`MIN_WINDOW`).  A full batch (:data:`MAX_BATCH`) flushes
  immediately without waiting for the timer.

The event loop is plain ``asyncio`` running on a daemon thread, so sync
clients — benchmark threads, tests, anything — talk to it through
thread-safe handoffs (:meth:`Server.submit` returns a
``concurrent.futures.Future``).  Batches execute on one separate
worker thread: batches serialize, which under the GIL costs nothing and
gives natural backpressure — the queue keeps filling while a batch runs,
so the *next* batch is bigger.

Mutations do not go through the server: writers call the ``Database``
DML surface directly, and the engine's epoch protocol
(:mod:`repro.engine.epochs`) serialises them against in-flight coalesced
reads — every result a batch fans out carries the single committed epoch
the whole batch observed.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import Callable

from repro.cache.result_cache import ResultCacheStats
from repro.engine.database import Database
from repro.engine.planner import PlannerCacheStats
from repro.engine.query import QueryRequest, QueryResult
from repro.errors import ServingError

# The coalescing policy.  The window starts at INITIAL_WINDOW seconds; a flush
# that caught at least TARGET_BATCH requests multiplies it by GROW_FACTOR (up
# to MAX_WINDOW), one that caught a single request by SHRINK_FACTOR (down to
# MIN_WINDOW, the idle-latency cost of coalescing, so it stays tiny).  A
# pending queue reaching MAX_BATCH flushes without waiting for the timer.
INITIAL_WINDOW = 0.0005
MIN_WINDOW = 0.0001
MAX_WINDOW = 0.005
GROW_FACTOR = 2.0
SHRINK_FACTOR = 0.5
TARGET_BATCH = 16
MAX_BATCH = 1024


class RequestFuture:
    """Handle to one in-flight request; resolves to a ``QueryResult``.

    A deliberately slim stand-in for ``concurrent.futures.Future``: the
    stdlib class allocates a full ``Condition`` (lock + waiter queue) per
    instance and takes it on every transition, which at serving rates is a
    measurable slice of the whole pipeline (~20 us per request round-trip,
    against ~10 us of amortised engine work).  This one allocates a single
    lock and creates its wait event lazily, so the common case — the batch
    resolves before anyone blocks — never touches a condition variable.

    The supported surface is the one clients need: :meth:`result`,
    :meth:`exception`, :meth:`done` and :meth:`add_done_callback`
    (callbacks run on the resolving thread, immediately when already
    resolved).  Cancellation is intentionally absent — a coalesced request
    cannot be un-batched.
    """

    __slots__ = ("_lock", "_done", "_result", "_error", "_event",
                 "_callbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._done = False
        self._result: QueryResult | None = None
        self._error: BaseException | None = None
        self._event: threading.Event | None = None
        self._callbacks: list[Callable[["RequestFuture"], None]] = []

    def done(self) -> bool:
        """Whether the request has resolved (result or error)."""
        return self._done

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until resolved; return the result or raise the error."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._result  # type: ignore[return-value]

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; return the error, or None on success."""
        self._wait(timeout)
        return self._error

    def add_done_callback(
            self, callback: Callable[["RequestFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (now, if already resolved)."""
        with self._lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        callback(self)

    def _wait(self, timeout: float | None) -> None:
        if self._done:
            return
        with self._lock:
            if not self._done and self._event is None:
                self._event = threading.Event()
            event = self._event
        if event is not None and not event.wait(timeout):
            raise FutureTimeoutError()

    def _resolve(self, result: QueryResult | None,
                 error: BaseException | None) -> None:
        """Publish the outcome (called once, by the server)."""
        with self._lock:
            self._result = result
            self._error = error
            self._done = True
            event = self._event
            callbacks = self._callbacks
            self._callbacks = []
        if event is not None:
            event.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - mirror stdlib: never let a
                pass           # client callback kill the resolving thread


@dataclass(frozen=True)
class ServerStats:
    """Snapshot of the server's cumulative counters.

    Attributes:
        requests: Requests accepted.
        batches: Coalesced batches executed (so ``requests / batches`` is
            the mean coalescing factor).
        max_batch: Largest batch executed.
        full_flushes: Batches dispatched at exactly :data:`MAX_BATCH`
            — i.e. flushes the queue filled rather than the timer cut.
        window: Current adaptive window (seconds).
        plan_cache: The engine's cumulative plan-cache counters — together
            with ``requests / batches`` this shows the two halves of
            coalescing (fewer planner visits, bigger execution batches).
        plan_cache_per_table: The same counters split per table.
        result_cache: The engine's result-cache counters (hits, misses,
            stale/LRU evictions, bytes, per-table breakdown); reported
            with ``enabled=False`` when the served database runs without a
            result cache.
    """

    requests: int = 0
    batches: int = 0
    max_batch: int = 0
    full_flushes: int = 0
    window: float = 0.0
    plan_cache: PlannerCacheStats = PlannerCacheStats()
    plan_cache_per_table: "dict[str, PlannerCacheStats]" = dataclasses_field(
        default_factory=dict)
    result_cache: ResultCacheStats = dataclasses_field(
        default_factory=ResultCacheStats)

    @property
    def mean_batch(self) -> float:
        """Mean coalescing factor (1.0 when nothing ever coalesced)."""
        return self.requests / self.batches if self.batches else 0.0


class Server:
    """Coalescing read server over one :class:`Database`.

    Usage::

        with Server(db) as server:
            future = server.submit(QueryRequest.point("t", "a", 42.0))
            result = future.result()          # a QueryResult

    Args:
        database: The engine to serve.  The server only reads; writers keep
            using the database's DML surface directly.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._window = INITIAL_WINDOW
        self._pending: deque[tuple[QueryRequest, RequestFuture]] = deque()
        self._flush_handle: asyncio.TimerHandle | None = None
        # True while a wakeup/timer covers the queue: submits only poke the
        # loop on the empty->nonempty transition (see the module docstring).
        self._armed = False
        self._closed = False
        self._requests = 0
        self._batches = 0
        self._max_batch = 0
        self._full_flushes = 0
        self._executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="repro-serving-worker",
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serving-loop",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------- client API

    def submit(self, request: QueryRequest) -> RequestFuture:
        """Enqueue a request; returns a future resolving to its result.

        Thread-safe; callable from any thread, and deliberately cheap: one
        future allocation, one atomic queue append, and — only when no
        wakeup already covers the queue — one event-loop poke.  The future
        fails with :class:`~repro.errors.ServingError` when the server is
        (or gets) closed before the request executes, and with whatever
        the engine raised for this request (a bad batch-mate does not fail
        it).
        """
        if self._closed:
            raise ServingError("server is closed")
        future = RequestFuture()
        # Order matters for the close()/flush races: append *then* test the
        # armed flag, while _flush drains, clears the flag, then re-tests
        # the queue — every interleaving leaves the request either drained
        # or covered by a wakeup.
        self._pending.append((request, future))
        if not self._armed:
            self._armed = True
            self._loop.call_soon_threadsafe(self._wakeup)
        elif len(self._pending) % MAX_BATCH == 0:
            # Full queue: flush without waiting for the timer.  The modulo
            # (rather than >=) keeps this to ~one poke per MAX_BATCH
            # requests even while a batch is already executing; duplicate
            # or skipped pokes are harmless — _flush on an empty queue is
            # a no-op and the armed timer still covers the queue.
            self._loop.call_soon_threadsafe(self._flush)
        return future

    def query(self, request: QueryRequest,
              timeout: float | None = None) -> QueryResult:
        """Blocking convenience: :meth:`submit` and wait for the result."""
        return self.submit(request).result(timeout=timeout)

    def stats(self) -> ServerStats:
        """Snapshot of the cumulative serving counters."""
        return ServerStats(
            requests=self._requests, batches=self._batches,
            max_batch=self._max_batch, full_flushes=self._full_flushes,
            window=self._window,
            plan_cache=self.database.planner_cache_stats(),
            plan_cache_per_table=self.database.planner_cache_info(),
            result_cache=self.database.result_cache_info(),
        )

    def close(self) -> None:
        """Flush pending requests, stop the loop, join all threads.

        Idempotent.  Requests submitted after (or racing) close fail with
        :class:`~repro.errors.ServingError`; requests already queued are
        executed before the server stops.
        """
        if self._closed:
            return
        self._closed = True

        def _shutdown() -> None:
            self._flush()
            self._loop.stop()

        self._loop.call_soon_threadsafe(_shutdown)
        self._thread.join()
        self._executor.shutdown(wait=True)
        # Requests that raced close() past the final flush: their submit()
        # already returned a future, so fail it rather than leave it
        # hanging forever.
        while True:
            try:
                _, future = self._pending.popleft()
            except IndexError:
                break
            future._resolve(
                None, ServingError("server closed before the request executed")
            )
        self._loop.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- loop side

    def _wakeup(self) -> None:
        """First-arrival poke: arm the flush timer (runs on the loop thread).

        The request that triggered the poke may be gone by now — a flush
        can drain it between ``submit``'s append and its ``_armed`` test.
        Leaving ``_armed`` set with no timer behind it would silence every
        later ``submit``, so with nothing to arm the flag is cleared and
        the queue re-tested, the same protocol ``_flush`` ends with.
        """
        if self._flush_handle is not None:
            return
        if not self._pending:
            self._armed = False
            if not self._pending:
                return
            self._armed = True
        self._flush_handle = self._loop.call_later(self._window, self._flush)

    def _flush(self) -> None:
        """Drain the queue into batches and adapt the window (loop thread)."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch: list[tuple[QueryRequest, RequestFuture]] = []
        drained = 0
        while True:
            try:
                batch.append(self._pending.popleft())
            except IndexError:
                break
            if len(batch) == MAX_BATCH:
                drained += MAX_BATCH
                self._full_flushes += 1
                self._dispatch(batch)
                batch = []
        if batch:
            drained += len(batch)
            self._dispatch(batch)
        # Clear the armed flag *after* draining, then re-check the queue:
        # a submit that raced the drain either saw the flag still set (we
        # catch its request here) or sees it cleared and pokes the loop
        # itself.  Either way no request is left uncovered.
        self._armed = False
        if self._pending and not self._armed:
            self._armed = True
            self._wakeup()
        if drained:
            self._adapt_window(drained)

    def _dispatch(self,
                  batch: list[tuple[QueryRequest, RequestFuture]]) -> None:
        """Hand one batch to the worker thread (loop thread).

        Counted before the hand-off: once the worker resolves the batch, a
        caller's :meth:`stats` must already see its requests."""
        self._requests += len(batch)
        self._batches += 1
        self._max_batch = max(self._max_batch, len(batch))
        self._executor.submit(self._run_batch, batch)

    def _adapt_window(self, batch_size: int) -> None:
        """Grow the window under load, shrink it when flushes come up empty.

        The policy is deliberately multiplicative in both directions: a
        burst doubles the window within a few flushes (more coalescing when
        it pays), and a single idle flush halves it (latency recovers just
        as fast when load drops).
        """
        if batch_size >= TARGET_BATCH:
            self._window = min(self._window * GROW_FACTOR, MAX_WINDOW)
        elif batch_size <= 1:
            self._window = max(self._window * SHRINK_FACTOR, MIN_WINDOW)

    # ----------------------------------------------------------- worker side

    def _run_batch(
            self,
            batch: list[tuple[QueryRequest, RequestFuture]]) -> None:
        """Execute one coalesced batch and fan results out (worker thread).

        One bad request (say, one naming an unknown table) fails the whole
        ``execute_many`` call; its batch-mates are then answered one by one,
        so only the offenders' futures carry their own error.
        """
        try:
            results = self.database.execute_many(
                [request for request, _ in batch]
            )
        except BaseException:  # noqa: BLE001 - no future may be lost
            for request, future in batch:
                try:
                    result = self.database.execute(request)
                except BaseException as error:  # noqa: BLE001 - its own
                    future._resolve(None, error)
                else:
                    future._resolve(result, None)
            return
        for (_, future), result in zip(batch, results):
            future._resolve(result, None)
