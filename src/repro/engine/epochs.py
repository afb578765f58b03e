"""Mutation epochs: the engine's reader-writer protocol.

Until the serving layer existed the engine was single-threaded by
assumption — nothing stopped a mutation from interleaving with a read
half-way through index maintenance, because nothing ever did.  The serving
front end (``repro.serving``) breaks that assumption: coalesced read
batches execute on worker threads while writers keep calling
``insert_many`` / ``update`` / ``delete``.  :class:`EpochManager` makes the
assumption explicit instead of implicit:

* **Reads share, writes exclude.**  Any number of reads may run
  concurrently; a write waits for in-flight reads to drain and blocks new
  ones until it commits.  A read therefore always observes the engine
  *between* mutations — never a half-applied one (the "torn read" a
  concurrent insert could otherwise produce while the table is updated but
  a secondary index is not yet).
* **Every committed write is one epoch.**  The manager keeps a monotonic
  counter bumped when the outermost write releases.  Reads are handed the
  epoch they executed under, so results can be ordered against mutations,
  and the epoch feeds the catalog's statistics cache and the planner's
  plan-cache invalidation (a cached plan is replanned after a bounded
  number of write epochs, so mutation-driven statistics drift cannot go
  unnoticed forever).
* **Writer preference.**  New readers queue behind a waiting writer so a
  steady read load cannot starve mutations — the serving benchmark's
  open-loop read stream would otherwise lock writers out indefinitely.
* **Reentrant per thread.**  An auto-checkpoint takes the read side from
  inside the mutation that triggered it, and the writer occasionally reads
  its own tables mid-mutation; both sides count per-thread depth so nested
  acquisitions are free.  The one illegal move is upgrading — asking for
  the write side while holding the read side — which would deadlock
  against the thread's own read and raises
  :class:`~repro.errors.ConcurrencyError` instead.

The locking is deliberately coarse (one manager per database, not per
table): under the GIL the engine's array passes serialise anyway, so the
win of finer locks would be noise while the risk — lock-order deadlocks
between table and catalog mutations — is real.
"""

from __future__ import annotations

import itertools
import threading
import traceback

from repro.errors import ConcurrencyError, EpochDisciplineError

# Managers (in acquisition order) the current thread holds a side of.
# Module-level because lock-order inversions are by definition a property
# of *several* managers; maintained only in debug mode.
_held = threading.local()


def _held_managers() -> "list[EpochManager]":
    managers = getattr(_held, "managers", None)
    if managers is None:
        managers = []
        _held.managers = managers
    return managers


def _acquisition_stack() -> str:
    """The caller's stack, trimmed of the checker's own frames."""
    return "".join(traceback.format_stack()[:-3]).rstrip()


class _ThreadState(threading.local):
    """Per-thread side of a manager: its read depth starts at 0 on every
    thread (a class attribute, so reading it is one attribute lookup)."""

    read_depth = 0


class EpochManager:
    """Reentrant reader-writer lock with a monotonic write-epoch counter.

    Args:
        debug: Switch on the epoch-lock discipline checker.  In debug mode
            the manager records the acquisition stack of every outermost
            read/write, :meth:`note_mutation` raises
            :class:`~repro.errors.EpochDisciplineError` on mutations
            reachable from the shared side (or from no side at all),
            upgrade attempts report the stack that took the read side, and
            outermost acquisitions are checked for lock-order inversions
            against every other debug manager the thread already holds.
            Costs a few dict operations per outermost acquisition; the
            default (``False``) stays on the lean path.
        name: Optional label used in discipline reports; defaults to a
            per-process sequence number.

    Attributes:
        current: The number of committed write epochs so far.  Reading it
            without holding either side is intentionally allowed — it is a
            single int assignment away from consistent, and every consumer
            that needs exactness (the planner's freshness check, a read's
            reported epoch) reads it under the lock via :meth:`read` /
            :meth:`write`.
    """

    _sequence = itertools.count(1)
    # Directed acquired-before edges between debug managers, shared
    # process-wide: (id(first), id(second)) -> human-readable evidence.
    _order_lock = threading.Lock()
    _order_edges: "dict[tuple[int, int], str]" = {}

    def __init__(self, debug: bool = False, name: str | None = None) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer: int | None = None
        self._writer_depth = 0
        self._epoch = 0
        self._local = _ThreadState()
        self._read_side = _ReadSide(self)
        self._write_side = _WriteSide(self)
        self._debug = debug
        self.name = name or f"epochs-{next(self._sequence)}"

    @property
    def debug(self) -> bool:
        """Whether the discipline checker is on."""
        return self._debug

    @property
    def current(self) -> int:
        """Number of committed write epochs."""
        return self._epoch

    def read(self) -> "_ReadSide":
        """Acquire the shared side; ``with`` yields the epoch the read
        executes under.

        Reentrant: nested reads on the same thread, and reads inside the
        thread's own write, are free.  A fresh read queues behind any
        active or waiting writer (writer preference).
        """
        return self._read_side

    def write(self) -> "_WriteSide":
        """Acquire the exclusive side; ``with`` yields the epoch this write
        commits as.

        Reentrant on the same thread; only the outermost release bumps the
        epoch (one logical mutation = one epoch).  Raises
        :class:`~repro.errors.ConcurrencyError` when the calling thread
        holds the read side — the upgrade would deadlock against itself.
        """
        return self._write_side

    # --------------------------------------------- discipline checker (debug)

    def note_mutation(self, label: str) -> None:
        """Assert the calling thread may mutate engine state *right now*.

        The engine's mutation points (the catalog's ``epoch_guard`` hook,
        wired by ``Database``) call this with a short label.  A no-op
        unless the manager is in debug mode; in debug mode it raises
        :class:`~repro.errors.EpochDisciplineError` when the thread holds
        the shared side but not the exclusive side (a shared-side write —
        concurrent readers may be observing the half-applied mutation) or
        holds nothing at all (an unlocked mutation).
        """
        if not self._debug:
            return
        if self._writer == threading.get_ident():
            return
        if self._local.read_depth:
            held_at = getattr(self._local, "read_stack",
                              "<stack not recorded>")
            raise EpochDisciplineError(
                f"[{self.name}] mutation {label!r} under the shared (read) "
                f"side — concurrent readers may observe it half-applied\n"
                f"read side acquired at:\n{held_at}"
            )
        raise EpochDisciplineError(
            f"[{self.name}] mutation {label!r} without holding the write "
            f"side of the epoch protocol"
        )

    def _debug_check_order(self) -> None:
        """Record acquired-before edges; raise on an inversion.

        Called before an outermost acquisition while already holding other
        debug managers.  Two managers taken in both orders by different
        code paths is a deadlock waiting for the right interleaving, so
        the *potential* is reported even when this particular run would
        have survived.
        """
        holding = _held_managers()
        if not holding:
            return
        with EpochManager._order_lock:
            for other in holding:
                if other is self:
                    continue
                reverse = (id(self), id(other))
                if reverse in EpochManager._order_edges:
                    raise EpochDisciplineError(
                        f"lock-order inversion: acquiring [{self.name}] "
                        f"while holding [{other.name}], but the opposite "
                        f"order was taken at:\n"
                        f"{EpochManager._order_edges[reverse]}"
                    )
                edge = (id(other), id(self))
                if edge not in EpochManager._order_edges:
                    EpochManager._order_edges[edge] = (
                        f"[{other.name}] then [{self.name}] via:\n"
                        + _acquisition_stack()
                    )

    def _debug_acquired(self, side: str) -> None:
        stack = _acquisition_stack()
        if side == "read":
            self._local.read_stack = stack
        else:
            self._local.write_stack = stack
        _held_managers().append(self)

    def _debug_released(self) -> None:
        managers = _held_managers()
        for position in range(len(managers) - 1, -1, -1):
            if managers[position] is self:
                del managers[position]
                break

    @classmethod
    def reset_order_tracking(cls) -> None:
        """Forget recorded acquired-before edges (test isolation)."""
        with cls._order_lock:
            cls._order_edges.clear()


class _ReadSide:
    """The shared side of one :class:`EpochManager` as a context manager.

    One instance per manager serves every thread: what differs per thread
    (the read depth) lives in the manager's thread-local state.  A nested
    read — or a read inside the thread's own write — only moves the depth;
    an outermost read takes the lock once to enter and once to leave, and
    wakes the waiting writers only when it is the last reader out and a
    writer waits (a writer that starts waiting after that finds no reader
    left and does not wait).
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: EpochManager) -> None:
        self._manager = manager

    def __enter__(self) -> int:
        manager = self._manager
        local = manager._local
        depth = local.read_depth
        writer = manager._writer
        if depth or (writer is not None and writer == threading.get_ident()):
            # Nothing can commit while this thread holds either side.
            local.read_depth = depth + 1
            return manager._epoch
        if manager._debug:
            manager._debug_check_order()
        with manager._lock:
            while manager._writer is not None or manager._waiting_writers:
                manager._cond.wait()
            manager._active_readers += 1
            epoch = manager._epoch
        local.read_depth = 1
        if manager._debug:
            manager._debug_acquired("read")
        return epoch

    def __exit__(self, *exc_info) -> None:
        manager = self._manager
        local = manager._local
        depth = local.read_depth - 1
        local.read_depth = depth
        # An outermost read keeps writers out, so a writer here is this
        # thread, and the read was one inside its write.
        if depth or manager._writer is not None:
            return
        if manager._debug:
            manager._debug_released()
        with manager._lock:
            manager._active_readers -= 1
            if not manager._active_readers and manager._waiting_writers:
                manager._cond.notify_all()


class _WriteSide:
    """The exclusive side of one :class:`EpochManager` as a context manager.

    Like :class:`_ReadSide`, one instance serves every thread.  Only the
    writing thread reads or moves ``_writer_depth``, so a nested write
    takes no lock; the outermost release commits the epoch and wakes every
    waiter (readers queue behind a writer, so some always may wait).
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: EpochManager) -> None:
        self._manager = manager

    def __enter__(self) -> int:
        manager = self._manager
        me = threading.get_ident()
        if manager._writer == me:
            manager._writer_depth += 1
            return manager._epoch + 1
        if manager._local.read_depth:
            message = ("cannot acquire the write side while holding "
                       "the read side (read-to-write upgrade would "
                       "deadlock)")
            if manager._debug:
                held_at = getattr(manager._local, "read_stack",
                                  "<stack not recorded>")
                raise EpochDisciplineError(
                    f"[{manager.name}] {message}\n"
                    f"read side acquired at:\n{held_at}"
                )
            raise ConcurrencyError(message)
        if manager._debug:
            manager._debug_check_order()
        with manager._lock:
            manager._waiting_writers += 1
            try:
                while manager._writer is not None or manager._active_readers:
                    manager._cond.wait()
            finally:
                manager._waiting_writers -= 1
            manager._writer = me
            manager._writer_depth = 1
            epoch = manager._epoch + 1
        if manager._debug:
            manager._debug_acquired("write")
        return epoch

    def __exit__(self, *exc_info) -> None:
        manager = self._manager
        if manager._writer_depth > 1:
            manager._writer_depth -= 1
            return
        if manager._debug:
            manager._debug_released()
        with manager._lock:
            manager._writer_depth = 0
            manager._writer = None
            manager._epoch += 1
            manager._cond.notify_all()
