"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table schema is invalid or a column reference cannot be resolved."""


class StorageError(ReproError):
    """The base table or heap file rejected an operation."""


class TupleNotFoundError(StorageError):
    """A tuple identifier does not resolve to a live tuple."""


class PageError(StorageError):
    """A slotted page rejected an operation (overflow, bad slot, ...)."""


class BufferPoolError(StorageError):
    """The buffer pool cannot satisfy a request (e.g. all frames pinned)."""


class IndexError_(ReproError):
    """An index structure rejected an operation.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class KeyNotFoundError(IndexError_):
    """A key expected to be present in an index is missing."""


class DurabilityError(ReproError):
    """The durability subsystem rejected an operation (bad WAL payload,
    missing checkpoint, unserialisable value, ...)."""


class WalCorruptionError(DurabilityError):
    """A write-ahead-log file is corrupt beyond the tolerated torn tail.

    Torn tails (an incomplete or checksum-failing final record) are *not*
    errors — recovery truncates them silently.  This error marks corruption
    that cannot be explained by a crashed append, e.g. a bad record in the
    middle of the log followed by valid data.
    """


class ConcurrencyError(ReproError):
    """The reader-writer epoch protocol rejected an operation (for example a
    thread holding the read side asking for the write side, which would
    deadlock against itself)."""


class EpochDisciplineError(ConcurrencyError):
    """The epoch-lock discipline checker detected a protocol violation.

    Raised only by ``EpochManager(debug=True)`` (plus the always-on upgrade
    guard): a mutation on the shared side or without any side held, a
    read-to-write upgrade attempt, or a lock-order inversion between two
    managers.  The message carries the acquisition stack(s) involved.
    Subclasses :class:`ConcurrencyError` so callers that already handle the
    protocol's rejections keep working with the checker switched on."""


class ServingError(ReproError):
    """The serving front end rejected a request (server closed, ...)."""


class ShardError(ReproError):
    """A shard worker process exited without answering a command."""


class CatalogError(ReproError):
    """The catalog rejected an operation (unknown table, duplicate index, ...)."""


class QueryError(ReproError):
    """A query or predicate is malformed for the schema it targets."""


class ConfigurationError(ReproError):
    """A configuration object carries invalid parameter values."""


class CorrelationError(ReproError):
    """Correlation discovery or correlation-function evaluation failed."""
