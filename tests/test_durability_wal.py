"""WAL codec and torn-tail tests.

Two layers of guarantees:

* **Codec round-trip** (hypothesis): any column batch — int64/float64/string
  columns, unicode, nulls, empty batches — and any JSON payload survives
  ``encode_record`` → ``scan_wal`` bit-exactly.
* **Torn-write corpus**: a valid WAL truncated at *every* byte offset still
  scans without raising and always yields a prefix of the original records —
  the contract recovery relies on.
* **Corruption is not a torn tail**: a checksum-valid record that cannot be
  read (unknown opcode, non-increasing LSN) raises and leaves the file
  untouched.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.durability.config import DurabilityConfig, FsyncPolicy
from repro.durability.recovery import recover
from repro.durability.wal import (
    WalOp,
    WriteAheadLog,
    encode_columns,
    encode_record,
    scan_wal,
)
from repro.errors import DurabilityError, WalCorruptionError

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
int64s = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
strings = st.one_of(st.none(), st.text(max_size=40))


@st.composite
def column_batches(draw):
    """A column-oriented batch with equal-length mixed-dtype columns."""
    count = draw(st.integers(min_value=0, max_value=30))
    n_int = draw(st.integers(min_value=0, max_value=2))
    n_float = draw(st.integers(min_value=0, max_value=2))
    n_str = draw(st.integers(min_value=0, max_value=2))
    columns = {}
    for i in range(n_int):
        columns[f"i{i}"] = np.asarray(
            draw(st.lists(int64s, min_size=count, max_size=count)),
            dtype=np.int64,
        )
    for i in range(n_float):
        columns[f"f{i}"] = np.asarray(
            draw(st.lists(finite_floats, min_size=count, max_size=count)),
            dtype=np.float64,
        )
    for i in range(n_str):
        columns[f"s{i}"] = draw(
            st.lists(strings, min_size=count, max_size=count)
        )
    return columns


def record_bytes(record) -> bytes:
    """Canonical on-disk form — array-safe record equality for the tests."""
    return encode_record(record.lsn, record.op, record.payload)


def roundtrip(op, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wal.log")
        with open(path, "wb") as handle:
            handle.write(encode_record(1, op, payload))
        records, valid = scan_wal(path)
        assert valid == os.path.getsize(path)
    assert len(records) == 1
    assert records[0].lsn == 1 and records[0].op is op
    return records[0].payload


@SETTINGS
@given(batch=column_batches())
@example(batch={"s0": ["\x00"]})
@example(batch={"s0": ["a\x00", None, "b"]})
def test_insert_many_roundtrip(batch):
    decoded = roundtrip(WalOp.INSERT_MANY,
                        {"table": "t", "columns": batch})
    assert decoded["table"] == "t"
    assert set(decoded["columns"]) == set(batch)
    for name, values in batch.items():
        got = decoded["columns"][name]
        if isinstance(values, np.ndarray):
            assert np.asarray(got).dtype == values.dtype
            np.testing.assert_array_equal(np.asarray(got), values)
        else:
            assert list(got) == list(values)


@SETTINGS
@given(data=st.data(), locations=st.lists(
    st.integers(min_value=0, max_value=2 ** 40), max_size=6))
def test_update_payload_roundtrip(data, locations):
    """The batched shape ``DurabilityManager.log_update_many`` writes: the
    rows' locations and, per changed column, one value per row."""
    columns = data.draw(st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.lists(st.one_of(st.none(), int64s, finite_floats,
                           st.text(max_size=20)),
                 min_size=len(locations), max_size=len(locations)),
        max_size=5))
    payload = {"table": "t", "locations": locations, "columns": columns}
    assert roundtrip(WalOp.UPDATE, payload) == payload


def test_delete_payload_roundtrip():
    """The batched shape ``DurabilityManager.log_delete_many`` writes."""
    payload = {"table": "t", "locations": [9, 0, 2 ** 40]}
    assert roundtrip(WalOp.DELETE, payload) == payload


def test_nan_and_infinity_survive():
    decoded = roundtrip(WalOp.UPDATE, {
        "table": "t", "locations": [0, 1],
        "columns": {"a": [float("inf"), 1.0], "b": [float("-inf"), 2.0]},
    })
    assert decoded["columns"]["a"] == [float("inf"), 1.0]
    assert decoded["columns"]["b"] == [float("-inf"), 2.0]
    batch = {"f": np.asarray([np.nan, np.inf, -np.inf, 0.0])}
    decoded = roundtrip(WalOp.INSERT_MANY,
                        {"table": "t", "columns": batch})
    np.testing.assert_array_equal(np.asarray(decoded["columns"]["f"]),
                                  batch["f"])


def test_unencodable_columns_rejected():
    with pytest.raises(DurabilityError):
        encode_columns({"bad": [object()]})
    with pytest.raises(DurabilityError):
        encode_columns({"a": [1, 2], "b": [1]})
    with pytest.raises(DurabilityError):
        encode_columns({"two_d": np.zeros((2, 2))})


def build_sample_wal(path: str) -> list:
    """A small WAL exercising every opcode, every write in the batched
    shape ``DurabilityManager`` logs; returns its records."""
    wal = WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    wal.append(WalOp.CREATE_TABLE, {"schema": {
        "name": "t", "primary_key": "pk",
        "columns": [{"name": "pk", "dtype": "int64", "nullable": False},
                    {"name": "v", "dtype": "float64", "nullable": True},
                    {"name": "s", "dtype": "string", "nullable": True}],
    }})
    wal.append(WalOp.INSERT_MANY, {"table": "t", "columns": {
        "pk": np.arange(7, dtype=np.int64),
        "v": np.linspace(0.0, 1.0, 7),
        "s": ["α", None, "b", "c", "d", "e", "f"],
    }})
    wal.append(WalOp.CREATE_INDEX, {"name": "i", "table": "t", "column": "v",
                                    "method": "btree", "host_column": None,
                                    "trs_config": None,
                                    "cm_target_bucket_width": None,
                                    "cm_host_bucket_width": None,
                                    "preexisting": False})
    wal.append(WalOp.UPDATE, {"table": "t", "locations": [2, 5],
                              "columns": {"v": [0.25, None],
                                          "s": ["β", "g"]}})
    wal.append(WalOp.DELETE, {"table": "t", "locations": [3, 0]})
    wal.append(WalOp.DROP_INDEX, {"table": "t", "name": "i"})
    wal.close()
    records, valid = scan_wal(path)
    assert valid == os.path.getsize(path)
    return records


# The rows build_sample_wal's log leaves: (pk, v, s), by location.
SAMPLE_ROWS = [(1, 1 / 6, None), (2, 0.25, "β"), (4, 4 / 6, "d"),
               (5, None, "g"), (6, 1.0, "f")]


def test_recover_replays_the_sample_log(tmp_path):
    """Every record of the corpus replays: ``recover()`` rebuilds the rows
    the logged writes leave, and the dropped index is gone."""
    build_sample_wal(os.path.join(str(tmp_path), "wal.log"))
    database = recover(DurabilityConfig(directory=str(tmp_path),
                                        fsync=FsyncPolicy.OFF))
    try:
        table = database.table("t")
        slots, pks, values = table.project(["pk", "v"])
        strings = table.values(slots, "s")
        got = [(int(pk), None if np.isnan(value) else value, text)
               for pk, value, text in zip(pks.tolist(), values.tolist(),
                                          list(strings))]
        assert slots.tolist() == [1, 2, 4, 5, 6]
        assert got == [(pk, value if value is None else pytest.approx(value),
                        text) for pk, value, text in SAMPLE_ROWS]
        assert not database.catalog.table_entry("t").indexes
        database.check_invariants()
    finally:
        database.close()


def test_torn_write_corpus_every_byte_offset(tmp_path):
    """Truncating a valid WAL anywhere yields a clean prefix, never a crash."""
    path = os.path.join(str(tmp_path), "wal.log")
    records = build_sample_wal(path)
    blob = open(path, "rb").read()
    torn = os.path.join(str(tmp_path), "torn.log")
    boundaries = set()
    for cut in range(len(blob) + 1):
        with open(torn, "wb") as handle:
            handle.write(blob[:cut])
        got, valid = scan_wal(torn)
        assert valid <= cut
        # always a prefix, bit-identical
        assert [record_bytes(r) for r in got] == \
            [record_bytes(r) for r in records[:len(got)]]
        boundaries.add(len(got))
    # every prefix length is reachable, so each record boundary was exercised
    assert boundaries == set(range(len(records) + 1))


def test_garbled_tail_is_ignored_and_truncated(tmp_path):
    path = os.path.join(str(tmp_path), "wal.log")
    records = build_sample_wal(path)
    blob = bytearray(open(path, "rb").read())
    blob[-3] ^= 0xFF  # corrupt the last record's body
    with open(path, "wb") as handle:
        handle.write(blob)
    got, valid = scan_wal(path)
    assert [record_bytes(r) for r in got] == \
        [record_bytes(r) for r in records[:-1]]
    # reopening the appender truncates the torn tail physically
    wal = WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    wal.close()
    assert os.path.getsize(path) == valid
    again, _ = scan_wal(path)
    assert [record_bytes(r) for r in again] == \
        [record_bytes(r) for r in records[:-1]]


def test_append_continues_lsn_sequence_after_reopen(tmp_path):
    path = os.path.join(str(tmp_path), "wal.log")
    records = build_sample_wal(path)
    wal = WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    assert wal.last_lsn == records[-1].lsn
    lsn = wal.append(WalOp.DELETE, {"table": "t", "locations": [0]})
    wal.close()
    assert lsn == records[-1].lsn + 1
    got, _ = scan_wal(path)
    assert [r.lsn for r in got] == list(range(1, lsn + 1))


def test_midlog_corruption_stops_scan_at_prefix(tmp_path):
    """A bad record mid-log hides everything after it (monotonic prefix)."""
    path = os.path.join(str(tmp_path), "wal.log")
    records = build_sample_wal(path)
    blob = bytearray(open(path, "rb").read())
    # flip a byte inside the *second* record's body
    first_len = int.from_bytes(blob[0:4], "little")
    offset = (8 + first_len) + 8 + 2
    blob[offset] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(blob)
    got, valid = scan_wal(path)
    assert [record_bytes(r) for r in got] == [record_bytes(records[0])]
    assert valid == 8 + first_len


def test_crc_catches_single_bit_flip_anywhere_in_record(tmp_path):
    path = os.path.join(str(tmp_path), "wal.log")
    with open(path, "wb") as handle:
        handle.write(encode_record(1, WalOp.DELETE,
                                   {"table": "t", "locations": [9]}))
    blob = bytearray(open(path, "rb").read())
    body = bytes(blob[8:])
    assert zlib.crc32(body) == int.from_bytes(blob[4:8], "little")
    for position in range(8, len(blob)):
        flipped = bytearray(blob)
        flipped[position] ^= 0x10
        with open(path, "wb") as handle:
            handle.write(flipped)
        got, _ = scan_wal(path)
        assert got == []


def raw_record(lsn: int, opcode: int, payload: bytes) -> bytes:
    """A checksum-valid record with any opcode, bypassing :class:`WalOp`."""
    body = struct.pack("<QB", lsn, opcode) + payload
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


@pytest.mark.parametrize("planted", [
    # Opcode 3 logged a two-column index kind this version no longer has.
    raw_record(2, 3, b'{"name": "ix", "table": "t", "leading_column": "a", '
                     b'"second_column": "b", "preexisting": false}'),
    raw_record(2, 99, b"{}"),
    encode_record(1, WalOp.DROP_INDEX, {"table": "t", "name": "i"}),
], ids=["retired_opcode_3", "unknown_opcode_99", "lsn_not_increasing"])
def test_unreadable_checksum_valid_record_raises_and_keeps_the_log(
        tmp_path, planted):
    """A checksum-valid record that no crashed append can produce, between
    two valid ones: scanning, opening the appender and recovering all
    raise, and the file keeps every byte (nothing after it is truncated)."""
    path = os.path.join(str(tmp_path), "wal.log")
    blob = (encode_record(1, WalOp.DROP_INDEX, {"table": "t", "name": "a"})
            + planted
            + encode_record(3, WalOp.DROP_INDEX, {"table": "t", "name": "b"}))
    with open(path, "wb") as handle:
        handle.write(blob)
    with pytest.raises(WalCorruptionError):
        scan_wal(path)
    with pytest.raises(WalCorruptionError):
        WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    with pytest.raises(WalCorruptionError):
        recover(DurabilityConfig(directory=str(tmp_path)))
    assert open(path, "rb").read() == blob


def drop(lsn: int) -> bytes:
    return encode_record(lsn, WalOp.DROP_INDEX, {"table": "t", "name": "i"})


@pytest.mark.parametrize("blob", [
    raw_record(1, 3, b"{}") + drop(2) + drop(3),
    raw_record(1, 99, b"{}") + drop(2) + drop(3),
    drop(0) + drop(1) + drop(2),
    drop(1) + drop(2) + raw_record(3, 3, b"{}"),
    drop(1) + drop(2) + raw_record(3, 99, b"{}"),
    drop(1) + drop(2) + drop(2),
    drop(1) + drop(2) + drop(1),
    drop(4) + drop(2) + drop(5),
], ids=["first-retired_opcode_3", "first-unknown_opcode_99",
        "first-lsn_zero", "last-retired_opcode_3", "last-unknown_opcode_99",
        "last-lsn_repeated", "last-lsn_decreasing", "middle-lsn_decreasing"])
def test_unreadable_record_anywhere_raises_and_keeps_the_log(tmp_path, blob):
    """Where the unreadable record sits does not matter: as the log's first
    record nothing is before it to keep, and as its last a torn tail would
    look the same if it were not checksum-valid — neither may be cut."""
    path = os.path.join(str(tmp_path), "wal.log")
    with open(path, "wb") as handle:
        handle.write(blob)
    with pytest.raises(WalCorruptionError):
        scan_wal(path)
    with pytest.raises(WalCorruptionError):
        WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    with pytest.raises(WalCorruptionError):
        recover(DurabilityConfig(directory=str(tmp_path)))
    assert open(path, "rb").read() == blob


def test_torn_copy_of_a_valid_tail_is_still_truncated(tmp_path):
    """The other side of the rule: the same three records with the last one
    cut short is a crashed append, so the appender cuts it and continues
    the LSN sequence after the last whole record."""
    path = os.path.join(str(tmp_path), "wal.log")
    whole = drop(1) + drop(2)
    with open(path, "wb") as handle:
        handle.write(whole + drop(3)[:-1])
    log = WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    assert log.last_lsn == 2
    log.close()
    assert open(path, "rb").read() == whole
