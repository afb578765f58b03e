"""Crash fault injection for the durability tests and benchmarks.

The write-ahead log performs all of its IO through an ``opener(path) ->
file-like`` seam (:class:`~repro.durability.wal.WriteAheadLog`).  This module
supplies a :class:`FaultInjector` whose opener yields :class:`FaultyFile`
objects that can

* **kill the process** at an exact cumulative WAL byte offset — the bytes up
  to the offset are written (optionally with a garbled tail), everything
  after is dropped, and :class:`SimulatedCrash` is raised;
* **tear a write** — silently drop (or garble) the tail of one ``write``
  call without raising, modelling a sector-aligned partial write that the
  application never observed; and
* **fail ``fsync`` once** — the next ``sync`` raises :class:`FsyncFailure`
  after dropping the unflushed buffer, modelling a device error at the
  worst moment.

``SimulatedCrash`` deliberately derives from :class:`BaseException` (like
``KeyboardInterrupt``): no ``except Exception`` handler inside the engine can
swallow it, so a test that injects a crash observes exactly what a killed
process would have left on disk.

Property tests drive this with hypothesis-chosen byte offsets and assert
that recovery from whatever survives equals the model of the surviving
operation prefix — see ``tests/test_durability_recovery.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


class SimulatedCrash(BaseException):
    """The injected process death.  Not a :class:`ReproError` on purpose."""


class FsyncFailure(OSError):
    """An injected one-shot ``fsync`` device error."""


@dataclass
class FaultPoint:
    """Where and how a fault fires, in cumulative bytes written to the WAL.

    Attributes:
        crash_at_byte: Die once this many total bytes have been written;
            the write in flight is truncated at the boundary.  ``None``
            disables the crash.
        garble_tail: Corrupt (bit-flip) up to this many bytes just before
            the crash boundary instead of cutting cleanly — models a torn
            sector that was partially, wrongly, persisted.
        torn_write_at_byte: Drop the remainder of the single ``write`` call
            that crosses this offset, then keep running (no exception) —
            the application believes the append succeeded.
        fail_fsync_after: Raise :class:`FsyncFailure` on the first ``sync``
            once this many bytes have been written (0 = first sync).
            ``None`` disables it.  Fires at most once.
    """

    crash_at_byte: int | None = None
    garble_tail: int = 0
    torn_write_at_byte: int | None = None
    fail_fsync_after: int | None = None


@dataclass
class FaultInjector:
    """Shared byte accounting across every file the injector opens.

    One injector models one process lifetime: the byte counter keeps
    running across WAL resets (checkpoints reopen the file), so a single
    ``crash_at_byte`` can land inside any append of the whole run.
    """

    fault: FaultPoint = field(default_factory=FaultPoint)
    bytes_written: int = 0
    fsync_failed: bool = False
    crashed: bool = False

    def opener(self, path: str) -> "FaultyFile":
        """The seam handed to :class:`DurabilityConfig` / the WAL."""
        return FaultyFile(path, self)


class FaultyFile:
    """Append-mode file that routes every write through a FaultInjector."""

    def __init__(self, path: str, injector: FaultInjector) -> None:
        self._handle = open(path, "ab")
        self._injector = injector

    def write(self, data: bytes) -> int:
        injector = self._injector
        fault = injector.fault
        start = injector.bytes_written
        end = start + len(data)

        if (fault.torn_write_at_byte is not None
                and start <= fault.torn_write_at_byte < end):
            keep = fault.torn_write_at_byte - start
            self._handle.write(data[:keep])
            injector.bytes_written = end  # the caller believes it all landed
            fault.torn_write_at_byte = None
            return len(data)

        if fault.crash_at_byte is not None and fault.crash_at_byte < end:
            keep = max(0, fault.crash_at_byte - start)
            surviving = bytearray(data[:keep])
            garble = min(fault.garble_tail, len(surviving))
            for i in range(len(surviving) - garble, len(surviving)):
                surviving[i] ^= 0xFF
            self._handle.write(bytes(surviving))
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            injector.crashed = True
            raise SimulatedCrash(
                f"injected crash at WAL byte {fault.crash_at_byte}"
            )

        self._handle.write(data)
        injector.bytes_written = end
        return len(data)

    def flush(self) -> None:
        self._handle.flush()

    def sync(self) -> None:
        injector = self._injector
        fault = injector.fault
        if (fault.fail_fsync_after is not None and not injector.fsync_failed
                and injector.bytes_written >= fault.fail_fsync_after):
            injector.fsync_failed = True
            raise FsyncFailure("injected fsync failure")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
