"""Crash-recovery property tests driven by the fault-injection harness.

The protocol invariant under test: kill the engine at *any* cumulative WAL
byte offset (optionally garbling the torn tail, or silently dropping a write
tail, or failing an fsync), recover the directory, and the recovered
database must be exactly the model of the operation prefix
that survived — across every index mechanism (HERMIT, B+-tree baseline,
correlation map), both pointer schemes, and the whole read
API (``execute`` / ``execute_many`` / ``query_with``).  The expected state
is ``reference.ModelTable`` replaying that prefix: the model the engine's
state machine (``test_engine_oracle``) checks every deployment against.

Because every logged operation appends exactly one record, LSN ``k``
corresponds to operation ``k`` of the scripted workload: the recovered
prefix length is simply ``durability_stats().last_lsn``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TRSTreeConfig
from repro.durability import (
    DurabilityConfig,
    FaultInjector,
    FaultPoint,
    FsyncFailure,
    FsyncPolicy,
    SimulatedCrash,
)
from repro.durability.checkpoint import write_checkpoint
from repro.durability.recovery import recover
from repro.durability.wal import WalOp, encode_record, scan_wal
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import DurabilityError
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import Column, DataType, TableSchema

from reference import ModelTable, assert_locations, assert_table_matches

pytestmark = pytest.mark.fault_injection

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

TRS = TRSTreeConfig(min_split_size=8)


# ----------------------------------------------------------------- workload

def _schema() -> TableSchema:
    return TableSchema("t", [
        Column("pk", DataType.INT64),
        Column("a", DataType.FLOAT64),
        Column("b", DataType.FLOAT64),
        Column("c", DataType.FLOAT64),
        Column("s", DataType.STRING, nullable=True),
    ], primary_key="pk")


def _batch(rng: np.random.Generator, start: int, count: int) -> dict:
    a = np.sort(rng.uniform(0.0, 1000.0, count))
    return {
        "pk": np.arange(start, start + count, dtype=np.int64),
        "a": a,
        "b": 2.0 * a + rng.normal(0.0, 4.0, count),
        "c": rng.uniform(0.0, 100.0, count),
        "s": [f"row-{start + i}-ü" if i % 7 else None for i in range(count)],
    }


def build_ops() -> list[tuple]:
    """The scripted workload: each entry logs exactly one WAL record."""
    rng = np.random.default_rng(7)
    ops: list[tuple] = [
        ("create_table",),
        ("insert_many", _batch(rng, 0, 120)),
        ("create_index", "ix_a", "a", IndexMethod.BTREE, {}),
        ("create_index", "ix_b_hermit", "b", IndexMethod.HERMIT,
         {"host_column": "a", "trs_config": TRS}),
        ("create_index", "ix_c", "c", IndexMethod.BTREE, {}),
        ("create_index", "ix_b_cm", "b", IndexMethod.CORRELATION_MAP,
         {"host_column": "a", "cm_target_bucket_width": 50.0,
          "cm_host_bucket_width": 25.0}),
        ("insert_many", _batch(rng, 120, 90)),
        ("update", 5, {"b": 123.5, "s": "updated"}),
        ("update", 17, {"a": 404.25}),
        ("delete", 30),
        ("delete", 31),
        ("insert_many", _batch(rng, 210, 60)),
        ("update", 150, {"c": 55.5, "s": None}),
        ("delete", 200),
        ("insert_many", _batch(rng, 270, 40)),
        # Batched DML: one record each, replayed through the primitives —
        # a primary-key change and a NaN target among the rows.
        ("update_many", [60, 250, 7], {"pk": [9_060, 9_250, 9_007],
                                       "b": [np.nan, 612.5, -3.0],
                                       "s": ["b1", None, "b3"]}),
        ("delete_many", [61, 251, 300, 8]),
        ("insert_many", _batch(rng, 310, 20)),
    ]
    return ops


def apply_op(database: Database, op: tuple) -> None:
    kind = op[0]
    if kind == "create_table":
        database.create_table(_schema())
    elif kind == "insert_many":
        database.insert_many("t", op[1])
    elif kind == "create_index":
        _, name, column, method, extra = op
        database.create_index(name, "t", column, method=method, **extra)
    elif kind == "update":
        database.update("t", op[1], op[2])
    elif kind == "delete":
        database.delete("t", op[1])
    elif kind == "update_many":
        database.update_many("t", op[1], op[2])
    elif kind == "delete_many":
        database.delete_many("t", op[1])
    else:
        raise AssertionError(f"unknown op {kind}")


def model_after(count: int) -> tuple[ModelTable | None, dict]:
    """The model of table ``t`` after the first ``count`` operations, and
    the indexes created so far (name -> (column, method))."""
    model, indexes = None, {}
    for op in build_ops()[:count]:
        kind = op[0]
        if kind == "create_table":
            model = ModelTable(_schema())
        elif kind == "insert_many":
            start = model.locations.size
            model.insert_many(op[1], range(start, start + len(op[1]["pk"])))
        elif kind == "create_index":
            indexes[op[1]] = (op[2], op[3])
        elif kind == "update":
            model.update(op[1], op[2])
        elif kind == "update_many":
            model.update_many(op[1], op[2])
        elif kind == "delete_many":
            for location in op[1]:
                model.delete(location)
        else:
            model.delete(op[1])
    return model, indexes


PREDICATES = [
    RangePredicate("a", 100.0, 400.0),
    RangePredicate("b", 300.0, 900.0),
    RangePredicate("c", 10.0, 35.0),
    RangePredicate("b", -50.0, 50.0),
]
CONJUNCTION = [RangePredicate("a", 100.0, 600.0),
               RangePredicate("b", 250.0, 1100.0)]


def assert_recovered(recovered: Database, count: int) -> None:
    """The recovered database is the model after ``count`` operations:
    storage, every index, and every read path."""
    model, indexes = model_after(count)
    assert ("t" in recovered.catalog) == (model is not None)
    if model is None:
        return
    assert_table_matches(recovered.table("t"), model)
    recovered.check_invariants()
    entry = recovered.catalog.table_entry("t")
    assert {name: (index.column, index.method)
            for name, index in entry.indexes.items()} == indexes
    for name, (column, _) in indexes.items():
        predicate = RangePredicate(column, 200.0, 700.0)
        assert_locations(recovered.query_with("t", name, predicate),
                         model.scan([predicate]))
    queries = [[predicate] for predicate in PREDICATES] + [CONJUNCTION]
    requests = [QueryRequest.of("t", query) for query in queries]
    for query, request, many in zip(queries, requests,
                                    recovered.execute_many(requests)):
        expected = model.scan(query)
        assert_locations(recovered.execute(request), expected)
        assert_locations(many, expected)


def run_workload(directory: str, injector: FaultInjector | None,
                 pointer_scheme: PointerScheme,
                 fsync: FsyncPolicy = FsyncPolicy.BATCH,
                 checkpoint_interval: int | None = 7) -> int:
    """Apply the scripted ops until completion or injected death.

    Returns the number of operations fully acknowledged before the fault.
    """
    config = DurabilityConfig(
        directory=directory, fsync=fsync, fsync_interval=3,
        checkpoint_interval_records=checkpoint_interval,
        opener=injector.opener if injector is not None else None,
    )
    database = Database(pointer_scheme=pointer_scheme, durability=config)
    acked = 0
    try:
        for op in build_ops():
            apply_op(database, op)
            acked += 1
        database.close()
    except SimulatedCrash:
        pass
    return acked


def total_wal_bytes(pointer_scheme: PointerScheme) -> int:
    """Cumulative WAL bytes of a fault-free run (deterministic workload)."""
    injector = FaultInjector()
    tmp = tempfile.mkdtemp()
    try:
        run_workload(tmp, injector, pointer_scheme)
    finally:
        shutil.rmtree(tmp)
    return injector.bytes_written


_TOTALS: dict[PointerScheme, int] = {}


def wal_budget(pointer_scheme: PointerScheme) -> int:
    if pointer_scheme not in _TOTALS:
        _TOTALS[pointer_scheme] = total_wal_bytes(pointer_scheme)
    return _TOTALS[pointer_scheme]


# ------------------------------------------------------------ property tests

@pytest.mark.parametrize("pointer_scheme",
                         [PointerScheme.PHYSICAL, PointerScheme.LOGICAL])
@SETTINGS
@given(fraction=st.floats(min_value=0.0, max_value=1.0),
       garble=st.integers(min_value=0, max_value=24),
       torn=st.booleans())
def test_crash_anywhere_recovers_surviving_prefix(pointer_scheme, fraction,
                                                  garble, torn):
    """Crash at any WAL byte → recovery equals the model of the prefix."""
    budget = wal_budget(pointer_scheme)
    offset = int(fraction * budget)
    fault = (FaultPoint(torn_write_at_byte=offset) if torn
             else FaultPoint(crash_at_byte=offset, garble_tail=garble))
    tmp = tempfile.mkdtemp()
    try:
        acked = run_workload(tmp, FaultInjector(fault=fault), pointer_scheme)
        recovered = recover(DurabilityConfig(directory=tmp),
                            pointer_scheme=pointer_scheme)
        survived = recovered.durability_stats().last_lsn
        assert survived <= len(build_ops())
        if not torn:
            assert acked <= survived + 1  # only the in-flight op may be lost
        assert_recovered(recovered, survived)
        recovered.close()
    finally:
        shutil.rmtree(tmp)


@SETTINGS
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
def test_fsync_always_loses_no_acknowledged_op(fraction):
    """Under ``FsyncPolicy.ALWAYS`` every acknowledged op must survive."""
    tmp_budget = tempfile.mkdtemp()
    injector = FaultInjector()
    try:
        run_workload(tmp_budget, injector, PointerScheme.PHYSICAL,
                     fsync=FsyncPolicy.ALWAYS)
    finally:
        shutil.rmtree(tmp_budget)
    offset = int(fraction * injector.bytes_written)

    tmp = tempfile.mkdtemp()
    try:
        acked = run_workload(
            tmp, FaultInjector(fault=FaultPoint(crash_at_byte=offset)),
            PointerScheme.PHYSICAL, fsync=FsyncPolicy.ALWAYS,
        )
        recovered = recover(DurabilityConfig(directory=tmp))
        survived = recovered.durability_stats().last_lsn
        assert survived >= acked
        assert_recovered(recovered, survived)
        recovered.close()
    finally:
        shutil.rmtree(tmp)


# --------------------------------------------------------- targeted faults

def test_crash_between_checkpoint_and_wal_reset(tmp_path):
    """A checkpoint whose WAL reset never happened recovers exactly once."""
    directory = str(tmp_path)
    config = DurabilityConfig(directory=directory,
                              checkpoint_interval_records=None)
    database = Database(durability=config)
    ops = build_ops()
    for op in ops:
        apply_op(database, op)
    # crash window: manifest committed, WAL still holds every record
    write_checkpoint(database, directory, database.durability.wal.last_lsn)
    database.close()

    recovered = recover(DurabilityConfig(directory=directory))
    assert recovered.durability_stats().recovery.records_replayed == 0
    assert_recovered(recovered, len(ops))
    recovered.close()


def test_corrupt_checkpoint_falls_back_to_older_one(tmp_path):
    """A bit-flipped npz fails its CRC and the previous checkpoint is used."""
    directory = str(tmp_path)
    config = DurabilityConfig(directory=directory, keep_checkpoints=2)
    database = Database(durability=config)
    ops = build_ops()
    for op in ops[:7]:
        apply_op(database, op)
    database.checkpoint()
    rows_at_first = database.table("t").num_rows
    for op in ops[7:]:
        apply_op(database, op)
    database.checkpoint()
    database.close()

    newest = sorted(name for name in os.listdir(directory)
                    if name.endswith(".npz"))[-1]
    path = os.path.join(directory, newest)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(blob)

    recovered = recover(DurabilityConfig(directory=directory))
    # the newest checkpoint is unusable and the WAL was reset after it, so
    # the recoverable state is the older checkpoint
    assert recovered.table("t").num_rows == rows_at_first
    assert_recovered(recovered, 7)
    recovered.close()


def test_torn_checkpoint_manifest_is_invisible(tmp_path):
    """A truncated manifest (crash mid-rename-window) is skipped entirely."""
    directory = str(tmp_path)
    database = Database(
        durability=DurabilityConfig(directory=directory)
    )
    ops = build_ops()
    for op in ops:
        apply_op(database, op)
    write_checkpoint(database, directory, 999_999)
    database.close()
    manifest = [name for name in os.listdir(directory)
                if name.endswith(".json")][0]
    path = os.path.join(directory, manifest)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[:len(blob) // 2])

    recovered = recover(DurabilityConfig(directory=directory))
    assert_recovered(recovered, len(ops))
    recovered.close()


def test_fsync_failure_surfaces_and_engine_stays_consistent(tmp_path):
    """An injected fsync error aborts the op before any state mutates."""
    directory = str(tmp_path)
    injector = FaultInjector()
    database = Database(durability=DurabilityConfig(
        directory=directory, fsync=FsyncPolicy.ALWAYS,
        opener=injector.opener,
    ))
    database.create_table(_schema())
    # arm the fault now, so the *next* sync (the insert's) is the one to die
    injector.fault.fail_fsync_after = injector.bytes_written
    with pytest.raises(FsyncFailure):
        apply_op(database, ("insert_many", _batch(np.random.default_rng(1),
                                                  0, 10)))
    # write-ahead ordering: the failed op never reached the engine
    assert database.table("t").num_rows == 0
    # the injector fails only once; the engine keeps working afterwards
    apply_op(database, ("insert_many", _batch(np.random.default_rng(2),
                                              0, 10)))
    assert database.table("t").num_rows == 10
    database.close()
    recovered = recover(DurabilityConfig(directory=directory))
    assert recovered.table("t").num_rows in (10, 20)
    recovered.close()


def test_fresh_database_refuses_used_directory(tmp_path):
    directory = str(tmp_path)
    database = Database(durability=DurabilityConfig(directory=directory))
    database.create_table(_schema())
    database.close()
    with pytest.raises(DurabilityError):
        Database(durability=DurabilityConfig(directory=directory))


def test_recovered_database_keeps_logging(tmp_path):
    """Post-recovery writes land in the same WAL and survive a second crash."""
    directory = str(tmp_path)
    database = Database(durability=DurabilityConfig(directory=directory))
    ops = build_ops()
    for op in ops[:7]:
        apply_op(database, op)
    database.close()

    recovered = recover(DurabilityConfig(directory=directory))
    for op in ops[7:]:
        apply_op(recovered, op)
    recovered.close()

    again = recover(DurabilityConfig(directory=directory))
    assert_recovered(again, len(ops))
    again.close()


def test_all_string_batch_replays_trailing_nuls(tmp_path):
    """A str-only column (no None, so numpy would type it ``<U``) keeps
    trailing NULs through WAL replay and through a checkpoint."""
    directory = str(tmp_path)
    database = Database(durability=DurabilityConfig(directory=directory))
    database.create_table(_schema())
    batch = _batch(np.random.default_rng(3), 0, 4)
    batch["s"] = ["\x00", "a\x00", "b", ""]
    database.insert_many("t", batch)
    database.close()
    for checkpointed in (False, True):
        recovered = recover(DurabilityConfig(directory=directory))
        assert [recovered.table("t").fetch(slot)["s"]
                for slot in range(4)] == batch["s"], checkpointed
        recovered.checkpoint()
        recovered.close()


# ------------------------------------------------------- retired index kinds

def _logged_btree_index(directory: str, checkpoint: bool) -> None:
    """Table ``t`` with rows and one B+-tree index ``ix_a``: three WAL
    records, folded into a checkpoint when asked."""
    database = Database(durability=DurabilityConfig(directory=directory))
    for op in build_ops()[:3]:
        apply_op(database, op)
    if checkpoint:
        database.checkpoint()
    database.close()


@pytest.mark.parametrize("method", ["sorted_column", "composite"])
def test_logged_retired_index_no_longer_replays(tmp_path, method):
    """A ``CREATE_INDEX`` record naming a retired method fails recovery
    with a DurabilityError, and the log keeps every byte."""
    directory = str(tmp_path)
    _logged_btree_index(directory, checkpoint=False)
    path = os.path.join(directory, "wal.log")
    records, _ = scan_wal(path)
    assert [record.op for record in records] == [
        WalOp.CREATE_TABLE, WalOp.INSERT_MANY, WalOp.CREATE_INDEX]
    with open(path, "wb") as handle:
        for record in records:
            payload = dict(record.payload)
            if record.op is WalOp.CREATE_INDEX:
                payload["method"] = method
            handle.write(encode_record(record.lsn, record.op, payload))
    blob = open(path, "rb").read()
    with pytest.raises(DurabilityError, match=method):
        recover(DurabilityConfig(directory=directory))
    assert open(path, "rb").read() == blob


@pytest.mark.parametrize("definition", [
    {"name": "ix_a", "table": "t", "column": "a", "method": "sorted_column",
     "host_column": None, "trs_config": None, "cm_target_bucket_width": None,
     "cm_host_bucket_width": None, "preexisting": False},
    {"name": "ix_a", "table": "t", "leading_column": "a",
     "second_column": "b", "preexisting": False},
], ids=["sorted_column", "two_column"])
def test_checkpointed_retired_index_no_longer_rebuilds(tmp_path, definition):
    """A checkpoint manifest whose index definition names a retired kind
    fails recovery with a DurabilityError, not a ValueError or KeyError."""
    directory = str(tmp_path)
    _logged_btree_index(directory, checkpoint=True)
    manifest_path = [os.path.join(directory, name)
                     for name in os.listdir(directory)
                     if name.endswith(".json")][0]
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [index["method"] for index in manifest["indexes"]] == ["btree"]
    manifest["indexes"] = [definition]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(DurabilityError, match="'ix_a'"):
        recover(DurabilityConfig(directory=directory))


def _directory_bytes(directory: str) -> dict[str, bytes]:
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


BTREE_DEFINITION = {
    "name": "ix_a", "table": "t", "column": "a", "method": "btree",
    "host_column": None, "trs_config": None, "cm_target_bucket_width": None,
    "cm_host_bucket_width": None, "preexisting": False}


@pytest.mark.parametrize("changes", [
    {"column": "zzz"},
    {"table": "nope"},
    {"method": "hermit", "column": "b", "host_column": "c"},
    {"method": "correlation_map", "column": "b", "host_column": "a"},
], ids=["no_such_column", "no_such_table", "hermit_without_host_index",
        "correlation_map_without_buckets"])
def test_checkpointed_index_that_fails_to_rebuild_is_a_durability_error(
        tmp_path, changes):
    """A checkpointed index definition that the engine refuses, for any
    reason, fails recovery as a DurabilityError naming the index — as the
    same definition does in a WAL record — and recovery writes nothing."""
    directory = str(tmp_path)
    _logged_btree_index(directory, checkpoint=True)
    manifest_path = [os.path.join(directory, name)
                     for name in os.listdir(directory)
                     if name.endswith(".json")][0]
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["indexes"] == [BTREE_DEFINITION]
    manifest["indexes"] = [{**BTREE_DEFINITION, **changes}]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    before = _directory_bytes(directory)
    with pytest.raises(DurabilityError, match="checkpointed index 'ix_a'"):
        recover(DurabilityConfig(directory=directory))
    assert _directory_bytes(directory) == before
