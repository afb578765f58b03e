"""WAL codec and torn-tail tests.

Two layers of guarantees:

* **Codec round-trip** (hypothesis): any column batch — int64/float64/string
  columns, unicode, nulls, empty batches — and any JSON payload survives
  ``encode_record`` → ``scan_wal`` bit-exactly.
* **Torn-write corpus**: a valid WAL truncated at *every* byte offset still
  scans without raising and always yields a prefix of the original records —
  the contract recovery relies on.
"""

from __future__ import annotations

import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.durability.config import FsyncPolicy
from repro.durability.wal import (
    WalOp,
    WriteAheadLog,
    encode_columns,
    encode_record,
    scan_wal,
)
from repro.errors import DurabilityError

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
@given(changes=st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(st.none(), int64s, finite_floats, st.text(max_size=20)),
    max_size=5,
), location=st.integers(min_value=0, max_value=2 ** 40))
def test_update_payload_roundtrip(changes, location):
    decoded = roundtrip(WalOp.UPDATE, {
        "table": "t", "location": location, "changes": changes,
    })
    assert decoded == {"table": "t", "location": location, "changes": changes}


def test_nan_and_infinity_survive():
    decoded = roundtrip(WalOp.UPDATE, {
        "table": "t", "location": 0,
        "changes": {"a": float("inf"), "b": float("-inf")},
    })
    assert decoded["changes"]["a"] == float("inf")
    assert decoded["changes"]["b"] == float("-inf")
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
    """A small WAL exercising every opcode; returns its records."""
    wal = WriteAheadLog(path, fsync=FsyncPolicy.OFF)
    wal.append(WalOp.CREATE_TABLE, {"schema": {
        "name": "t", "primary_key": "pk",
        "columns": [{"name": "pk", "dtype": "int64", "nullable": False}],
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
    wal.append(WalOp.UPDATE, {"table": "t", "location": 2,
                              "changes": {"v": 0.25}})
    wal.append(WalOp.DELETE, {"table": "t", "location": 3})
    wal.append(WalOp.DROP_INDEX, {"table": "t", "name": "i"})
    wal.close()
    records, valid = scan_wal(path)
    assert valid == os.path.getsize(path)
    return records


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
    lsn = wal.append(WalOp.DELETE, {"table": "t", "location": 0})
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
                                   {"table": "t", "location": 9}))
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
