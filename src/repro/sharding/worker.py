"""Shard worker: one :class:`~repro.engine.database.Database` per process.

A shard worker owns a full single-core engine instance and speaks a tiny
command protocol over a ``multiprocessing`` pipe: every message is a
``(command, payload)`` tuple, every reply a ``("ok", value)`` or
``("error", exception)`` tuple.  All shard state is built *through* the
protocol (the worker starts with an empty database and replays the DDL/DML
the router forwards), so the workers are start-method agnostic — fork and
spawn behave identically.

The same :func:`dispatch_command` body also backs the router's inline mode
(no processes, commands dispatched directly against in-process databases),
which is what guarantees the two modes cannot drift apart: the equivalence
tests exercise inline shards, the benchmark exercises process shards, and
both run exactly this code.

Query results cross the pipe *packed*: the per-request location arrays of a
whole ``execute_many`` batch are flattened into one segmented int64 array
(``repro.segments`` layout) plus small per-request metadata, and the
engine-side ``Plan`` objects are stripped (they hold live index references
and do not pickle).  The router pickles a fan-out's request list once and
sends the same bytes to every worker, which ``recv()`` here unpickles as
usual.  Measured on one 256-range batch over 200k rows in two shards
(2-core x86 box): each shard's ``execute_many`` ~2.5–3 ms (the two run in
parallel), the request pickle ~0.6 ms, the reply pickle plus unpickle
under 0.1 ms per shard, the router's segmented merge ~0.3 ms.
Shared-memory reply slots could save only that last 0.1 ms, and a
columnar request encoding rebuilt here measured within noise of the
pickle, so neither is built.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.lookup import LookupBreakdown
from repro.engine.database import Database
from repro.segments import concat_segments

# Packed reply of one execute_many command: segmented locations plus the
# per-request metadata the router needs to rebuild QueryResult objects.
# (values, offsets, used_indexes, group_sizes, epoch, merged breakdown)
PackedResults = tuple[np.ndarray, np.ndarray, "list[str | None]", "list[int]",
                      "int | None", LookupBreakdown]


def pack_results(results: list) -> PackedResults:
    """Flatten one batch of ``QueryResult`` objects for the pipe.

    Locations become one segmented int64 array; plans are dropped; the
    batch's distinct breakdown objects (plan groups share one) are merged
    into a single per-shard-batch accounting.
    """
    values, offsets = concat_segments(
        [result.locations for result in results])
    merged = LookupBreakdown()
    distinct = {id(result.breakdown): result.breakdown for result in results}
    for breakdown in distinct.values():
        merged.merge(breakdown)
    return (
        values, offsets,
        [result.used_index for result in results],
        [result.group_size for result in results],
        results[0].epoch if results else None,
        merged,
    )


def dispatch_command(database: Database, command: str, payload: Any) -> Any:
    """Apply one protocol command to a shard's database.

    Shared by the process worker loop and the router's inline mode; adding
    a command here makes it available to both.
    """
    if command == "execute_many":
        return pack_results(database.execute_many(payload))
    if command == "insert_many":
        table_name, columns = payload
        return database.insert_many(table_name, columns)
    if command == "delete":
        table_name, location = payload
        database.delete(table_name, location)
        return None
    if command == "update":
        table_name, location, changes = payload
        database.update(table_name, location, changes)
        return None
    if command == "fetch":
        table_name, location = payload
        return database.catalog.table_entry(table_name).table.fetch(location)
    if command == "create_table":
        database.create_table(payload)
        return None
    if command == "create_index":
        database.create_index(**payload)
        return None
    if command == "drop_index":
        table_name, index_name = payload
        database.drop_index(table_name, index_name)
        return None
    if command == "num_rows":
        return database.catalog.table_entry(payload).table.num_rows
    if command == "planner_info":
        return (database.planner_cache_stats(), database.planner_cache_info())
    if command == "result_cache_info":
        return database.result_cache_info()
    if command == "result_cache_clear":
        database.result_cache_clear()
        return None
    if command == "reorganize":
        return database.reorganize()
    if command == "check_invariants":
        database.check_invariants()
        return None
    raise ValueError(f"unknown shard command {command!r}")


def shard_worker_main(connection, pointer_scheme, trs_config,
                      result_cache=None) -> None:
    """Process entry point: serve protocol commands until ``close``/EOF."""
    database = Database(pointer_scheme=pointer_scheme, trs_config=trs_config,
                        result_cache=result_cache)
    while True:
        try:
            command, payload = connection.recv()
        except (EOFError, OSError):
            break
        if command == "close":
            connection.send(("ok", None))
            break
        try:
            connection.send(("ok", dispatch_command(database, command,
                                                    payload)))
        except BaseException as error:  # noqa: BLE001 - ship to the router
            connection.send(("error", error))
    connection.close()
