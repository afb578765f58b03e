"""Write-ahead log: length-prefixed, CRC32-checksummed redo records.

The log records *logical base-table mutations only* — ``insert_many`` /
``update_many`` / ``delete_many``, one record per batch, plus the DDL that
defines tables and indexes.  No index content is ever logged: the paper's
mechanisms (TRS-Trees, correlation maps, B+-trees) are succinct and cheap
to rebuild, so recovery reconstructs them from the recovered base data
instead of replaying their internal maintenance (see ``recovery.py``).

On-disk format, one record::

    <u32 body length> <u32 crc32(body)> <body>
    body = <u64 lsn> <u8 opcode> <payload>

All integers are little-endian.  DDL, ``UPDATE`` and ``DELETE`` payloads are
UTF-8 JSON; ``insert_many`` payloads carry their column batch in a compact
binary layout (raw int64/float64 array bytes, length-prefixed UTF-8 strings)
so that group-appending a large batch costs one ``tobytes`` per column.  A
``DELETE`` / ``UPDATE`` carries its batch's locations (and the rows' raw
new values, column by column), replayed by ``Database.delete_many`` /
``update_many``; a ``Database.delete`` or ``update`` logs a batch of one::

    DELETE  {"table": "t", "locations": [3, 9]}
    UPDATE  {"table": "t", "locations": [3, 9],
             "columns": {"x": [1.5, 2.0], "label": ["a", null]}}

Torn tails are expected, not fatal: a crash mid-append leaves a final record
whose header is incomplete, whose length overruns the file, or whose checksum
fails.  :func:`scan_wal` stops at the first such record and reports the byte
offset of the valid prefix; the :class:`WriteAheadLog` truncates the file
there before appending again.
"""

from __future__ import annotations

import enum
import io
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.durability.config import FsyncPolicy
from repro.errors import DurabilityError, WalCorruptionError

_HEADER = struct.Struct("<II")
_BODY_PREFIX = struct.Struct("<QB")
# Sanity bound on a single record so a garbled length field cannot make the
# scanner attempt a multi-gigabyte read: 256 MiB covers any realistic batch.
_MAX_RECORD_BYTES = 256 * 1024 * 1024

_KIND_INT64 = 0
_KIND_FLOAT64 = 1
_KIND_STRING = 2


class WalOp(enum.Enum):
    """Operation codes of the redo records.

    Opcode 3 is unassigned and must stay so: logs of an earlier version
    use it for a two-column index kind this engine does not build, and
    :func:`scan_wal` must refuse such a record, not read it as another op.
    """

    CREATE_TABLE = 1
    CREATE_INDEX = 2
    DROP_INDEX = 4
    INSERT_MANY = 5
    UPDATE = 6
    DELETE = 7


_JSON_OPS = frozenset({
    WalOp.CREATE_TABLE, WalOp.CREATE_INDEX, WalOp.DROP_INDEX, WalOp.UPDATE,
    WalOp.DELETE,
})


@dataclass(frozen=True)
class WalRecord:
    """One decoded redo record."""

    lsn: int
    op: WalOp
    payload: dict


# --------------------------------------------------------------- payload codec

def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _read_str(stream: io.BytesIO) -> str:
    (length,) = struct.unpack("<H", stream.read(2))
    return stream.read(length).decode("utf-8")


def encode_columns(columns: dict[str, Sequence]) -> bytes:
    """Encode a column-oriented batch for an ``insert_many`` payload.

    Numeric columns are classified by their array dtype — integer/bool input
    is stored as int64, floating input as float64 — so that replaying the
    record feeds :meth:`Database.insert_many` the same values the original
    call saw (including pre-coercion ones like ``2.7`` bound for an INT64
    column, which the table truncates identically on both sides).  String
    columns carry per-value null flags.

    Raises:
        DurabilityError: If column lengths differ or a value is not
            encodable (e.g. arbitrary objects in a column).
    """
    parts = [struct.pack("<H", len(columns))]
    lengths = set()
    for name, values in columns.items():
        array = np.asarray(values)
        if array.dtype.kind == "U" and not isinstance(values, np.ndarray):
            # A fixed-width <U array strips trailing NULs on the way back
            # out ('a\x00' -> 'a'); keep the caller's str objects.
            array = np.asarray(values, dtype=object)
        lengths.add(array.shape[0] if array.ndim else -1)
        parts.append(_pack_str(name))
        if array.ndim != 1:
            raise DurabilityError(
                f"column {name!r} is not one-dimensional"
            )
        if array.dtype.kind in "biu":
            parts.append(struct.pack("<BQ", _KIND_INT64, array.shape[0]))
            parts.append(np.ascontiguousarray(array, dtype="<i8").tobytes())
        elif array.dtype.kind == "f":
            parts.append(struct.pack("<BQ", _KIND_FLOAT64, array.shape[0]))
            parts.append(np.ascontiguousarray(array, dtype="<f8").tobytes())
        elif array.dtype.kind in "UO":
            parts.append(struct.pack("<BQ", _KIND_STRING, array.shape[0]))
            for value in array.tolist():
                if value is None:
                    parts.append(b"\x00")
                elif isinstance(value, str):
                    raw = value.encode("utf-8")
                    parts.append(b"\x01" + struct.pack("<I", len(raw)) + raw)
                else:
                    raise DurabilityError(
                        f"column {name!r} holds unencodable value "
                        f"{value!r} ({type(value).__name__})"
                    )
        else:
            raise DurabilityError(
                f"column {name!r} has unencodable dtype {array.dtype}"
            )
    if len(lengths) > 1:
        raise DurabilityError("insert_many columns have unequal lengths")
    return b"".join(parts)


def decode_columns(stream: io.BytesIO) -> dict[str, object]:
    """Inverse of :func:`encode_columns`."""
    (ncols,) = struct.unpack("<H", stream.read(2))
    columns: dict[str, object] = {}
    for _ in range(ncols):
        name = _read_str(stream)
        kind, count = struct.unpack("<BQ", stream.read(9))
        if kind == _KIND_INT64:
            columns[name] = np.frombuffer(
                stream.read(count * 8), dtype="<i8"
            ).astype(np.int64, copy=False)
        elif kind == _KIND_FLOAT64:
            columns[name] = np.frombuffer(
                stream.read(count * 8), dtype="<f8"
            ).astype(np.float64, copy=False)
        elif kind == _KIND_STRING:
            values: list[str | None] = []
            for _ in range(count):
                flag = stream.read(1)
                if flag == b"\x00":
                    values.append(None)
                else:
                    (length,) = struct.unpack("<I", stream.read(4))
                    values.append(stream.read(length).decode("utf-8"))
            columns[name] = values
        else:
            raise WalCorruptionError(f"unknown column kind {kind}")
    return columns


def encode_payload(op: WalOp, payload: dict) -> bytes:
    """Serialise a record payload for ``op``."""
    if op is WalOp.INSERT_MANY:
        return (_pack_str(payload["table"])
                + encode_columns(payload["columns"]))
    if op in _JSON_OPS:
        try:
            return json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise DurabilityError(
                f"payload of {op.name} is not JSON-serialisable: {error}"
            ) from error
    raise DurabilityError(f"unknown WAL op {op!r}")


def decode_payload(op: WalOp, raw: bytes) -> dict:
    """Inverse of :func:`encode_payload`.

    Raises:
        WalCorruptionError: If a checksum-valid record fails to decode —
            this indicates a writer/reader bug rather than a torn write, so
            it is never silently tolerated.
    """
    try:
        if op is WalOp.INSERT_MANY:
            stream = io.BytesIO(raw)
            table = _read_str(stream)
            return {"table": table, "columns": decode_columns(stream)}
        return json.loads(raw.decode("utf-8"))
    except WalCorruptionError:
        raise
    except Exception as error:  # noqa: BLE001 - any decode failure of a
        # checksum-valid record (bad JSON, bad UTF-8, truncated column
        # stream, ...) is corruption by definition and must be wrapped.
        raise WalCorruptionError(
            f"checksum-valid {op.name} record failed to decode: {error}"
        ) from error


def encode_record(lsn: int, op: WalOp, payload: dict) -> bytes:
    """Full on-disk bytes of one record (header + body)."""
    body = _BODY_PREFIX.pack(lsn, op.value) + encode_payload(op, payload)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


# -------------------------------------------------------------------- scanning

def scan_wal(path: str) -> tuple[list[WalRecord], int]:
    """Read every valid record of a WAL file, tolerating a torn tail.

    Returns:
        ``(records, valid_bytes)`` — the decoded records of the valid
        prefix and the byte offset at which the first torn/corrupt record
        (if any) starts.  A missing file yields ``([], 0)``.

    The scan stops — without raising — at the first incomplete header,
    overrunning length field or checksum mismatch: all are
    indistinguishable from a crash mid-append, and truncating to the last
    good record is exactly the contract a redo log offers.

    Raises:
        WalCorruptionError: If a checksum-valid record carries an opcode
            :class:`WalOp` does not define, an LSN that does not increase,
            or a payload that fails to decode.  A crashed append cannot
            produce any of them, so the bytes after such a record are kept
            rather than truncated away.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0

    records: list[WalRecord] = []
    offset = 0
    previous_lsn = 0
    while offset + _HEADER.size <= len(data):
        length, checksum = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if length < _BODY_PREFIX.size or length > _MAX_RECORD_BYTES:
            break
        if body_start + length > len(data):
            break
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != checksum:
            break
        lsn, opcode = _BODY_PREFIX.unpack_from(body, 0)
        try:
            op = WalOp(opcode)
        except ValueError:
            raise WalCorruptionError(
                f"checksum-valid record lsn={lsn} at byte {offset} has "
                f"unknown opcode {opcode}") from None
        if lsn <= previous_lsn:
            raise WalCorruptionError(
                f"checksum-valid record at byte {offset} has lsn={lsn}, "
                f"not above the previous lsn={previous_lsn}")
        records.append(
            WalRecord(lsn=lsn, op=op,
                      payload=decode_payload(op, body[_BODY_PREFIX.size:]))
        )
        previous_lsn = lsn
        offset = body_start + length
    return records, offset


# ------------------------------------------------------------------- file seam

class _OsFile:
    """Thin append-mode file wrapper exposing the seam the WAL writes through.

    The fault-injection harness substitutes an object with the same four
    methods (``write``/``flush``/``sync``/``close``) that can die mid-write
    or fail a sync; production code gets a buffered OS file plus ``fsync``.
    """

    def __init__(self, path: str) -> None:
        self._handle = open(path, "ab")

    def write(self, data: bytes) -> int:
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class WriteAheadLog:
    """Appender over one WAL file with an explicit fsync policy.

    Opening scans the existing file (if any), truncates a torn tail, and
    continues the LSN sequence after the last valid record.  A file that
    :func:`scan_wal` reports corrupt raises before any byte is cut.

    Args:
        path: WAL file path.
        fsync: When appends are forced to stable storage.
        fsync_interval: Group-commit size under :attr:`FsyncPolicy.BATCH`.
        opener: ``opener(path) -> file-like`` used for appending; the
            fault-injection seam.  ``None`` opens a real buffered file.
    """

    def __init__(self, path: str, fsync: FsyncPolicy = FsyncPolicy.BATCH,
                 fsync_interval: int = 64, opener=None) -> None:
        self.path = path
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        records, valid_bytes = scan_wal(path)
        self._truncate_to(valid_bytes)
        self.last_lsn = records[-1].lsn if records else 0
        self.records_appended = 0
        self.bytes_appended = 0
        self.sync_count = 0
        self._unsynced = 0
        self._opener = opener or _OsFile
        self._file = self._opener(path)

    # ------------------------------------------------------------------ append

    def append(self, op: WalOp, payload: dict) -> int:
        """Append one record and return its LSN."""
        return self.append_group([(op, payload)])

    def append_group(self, entries: Iterable[tuple[WalOp, dict]]) -> int:
        """Append a group of records with one write call and one sync decision.

        The whole group is encoded first — an unencodable payload raises
        before any byte reaches the file — then written with a single
        ``write``, which is what makes a batched ``insert_many`` cost one
        syscall regardless of batch size.

        Returns:
            The LSN of the last record in the group.
        """
        entries = list(entries)
        if not entries:
            return self.last_lsn
        chunks = []
        lsn = self.last_lsn
        for op, payload in entries:
            lsn += 1
            chunks.append(encode_record(lsn, op, payload))
        blob = b"".join(chunks)
        self._file.write(blob)
        self.last_lsn = lsn
        self.records_appended += len(entries)
        self.bytes_appended += len(blob)
        self._unsynced += len(entries)
        if self.fsync is FsyncPolicy.ALWAYS:
            self._sync()
        elif (self.fsync is FsyncPolicy.BATCH
                and self._unsynced >= self.fsync_interval):
            self._sync()
        else:
            self._file.flush()
        return lsn

    def flush(self) -> None:
        """Force buffered records out; fsync unless the policy is ``OFF``."""
        if self.fsync is FsyncPolicy.OFF:
            self._file.flush()
        else:
            self._sync()

    def _sync(self) -> None:
        self._file.sync()
        self.sync_count += 1
        self._unsynced = 0

    # ------------------------------------------------------------ maintenance

    def reset(self) -> None:
        """Discard every record (used after a checkpoint made them redundant).

        The LSN sequence keeps counting — LSNs are never reused, so a record
        written after a reset still sorts after the checkpoint it follows.
        """
        self._file.close()
        with open(self.path, "wb"):
            pass
        self.records_appended = 0
        self._unsynced = 0
        self._file = self._opener(self.path)

    def close(self) -> None:
        """Flush and close the underlying file."""
        try:
            self.flush()
        finally:
            self._file.close()

    def _truncate_to(self, valid_bytes: int) -> None:
        """Physically cut a torn tail off the file before appending."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size > valid_bytes:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
