"""Crash recovery: checkpoint restore + WAL replay + index rebuild.

:func:`recover` turns a durability directory back into a live
:class:`~repro.engine.database.Database`:

1. **Checkpoint restore** — load the newest *valid* checkpoint (torn or
   corrupt candidates are skipped), recreate each table, restore its raw
   column arrays / liveness bitmap / running statistics, and bulk-load the
   primary index from the live slots.
2. **Index rebuild** — re-run every secondary-index definition recorded in
   the manifest, in creation order, through the ordinary ``create_index``
   machinery.  Mechanism content is never logged or checkpointed:
   TRS-Trees, correlation maps and B+-tree secondaries are succinct and
   rebuilt from data — the paper's cheap-to-rebuild property doing real
   work in the recovery protocol.
3. **WAL replay** — re-apply every record with an LSN above the checkpoint
   through the same ``Database`` methods that produced it.  Replay is
   deterministic: tables append at ``next_slot`` and never reuse dead slots,
   so every replayed operation lands on the same row locations; payloads
   carry raw pre-coercion values, so statistics evolve identically.

The returned database has a resumed :class:`DurabilityManager` attached —
its WAL continues the LSN sequence — and carries the phase timings in
``durability_stats().recovery``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.durability.checkpoint import (
    find_latest_checkpoint,
    restore_table_arrays,
    schema_from_manifest,
)
from repro.durability.config import DurabilityConfig, RecoveryTimings
from repro.durability.manager import DurabilityManager, wal_path
from repro.durability.wal import WalOp, WalRecord, scan_wal
from repro.engine.database import Database
from repro.engine.catalog import IndexMethod
from repro.core.config import TRSTreeConfig
from repro.errors import DurabilityError
from repro.storage.identifiers import PointerScheme


def _apply_index_definition(database: Database, definition: dict) -> None:
    """Re-run one logged/checkpointed index definition.

    Definitions are fully resolved at creation time (``AUTO`` never reaches
    the log), so replay is deterministic and never consults the advisor.

    Raises:
        DurabilityError: If the definition names no method this engine
            builds — a kind an earlier version built and this one retired,
            whose log or checkpoint therefore no longer replays.
    """
    try:
        method = IndexMethod(definition.get("method"))
    except ValueError:
        raise DurabilityError(
            f"index {definition.get('name')!r} was defined with method "
            f"{definition.get('method')!r}, which this engine does not "
            f"build") from None
    trs_config = definition.get("trs_config")
    database.create_index(
        definition["name"], definition["table"], definition["column"],
        method=method,
        host_column=definition["host_column"],
        trs_config=TRSTreeConfig(**trs_config) if trs_config else None,
        cm_target_bucket_width=definition["cm_target_bucket_width"],
        cm_host_bucket_width=definition["cm_host_bucket_width"],
        preexisting=definition["preexisting"],
    )


def _apply_record(database: Database, record: WalRecord) -> None:
    """Redo one WAL record through the ordinary engine paths."""
    payload = record.payload
    if record.op is WalOp.CREATE_TABLE:
        database.create_table(schema_from_manifest(payload["schema"]))
    elif record.op is WalOp.CREATE_INDEX:
        _apply_index_definition(database, payload)
    elif record.op is WalOp.DROP_INDEX:
        database.drop_index(payload["table"], payload["name"])
    elif record.op is WalOp.INSERT_MANY:
        database.insert_many(payload["table"], payload["columns"])
    elif record.op is WalOp.UPDATE:
        database.update_many(payload["table"], payload["locations"],
                             payload["columns"])
    elif record.op is WalOp.DELETE:
        database.delete_many(payload["table"], payload["locations"])
    else:  # pragma: no cover - WalOp is closed
        raise DurabilityError(f"unknown WAL op {record.op!r}")


def _restore_checkpoint(database: Database, manifest: dict,
                        arrays: dict) -> None:
    """Recreate tables/primary indexes from a checkpoint payload."""
    for table_manifest in manifest["tables"]:
        schema = schema_from_manifest(table_manifest["schema"])
        table = database.create_table(schema)
        columns = restore_table_arrays(table_manifest, arrays)
        statistics = {
            name: (entry["count"], entry["minimum"], entry["maximum"])
            for name, entry in table_manifest["statistics"].items()
        }
        table.restore_snapshot(
            columns,
            arrays[f"{table_manifest['name']}::__live__"],
            table_manifest["next_slot"],
            statistics=statistics,
        )
        slots = table.live_slots()
        if len(slots):
            # column_array() is already restricted to live slots, aligned
            # with live_slots() — no further indexing by slot number.
            keys = table.column_array(schema.primary_key).astype(np.float64)
            entry = database.catalog.table_entry(table_manifest["name"])
            entry.primary_index.insert_many(keys, slots)


def recover(config: DurabilityConfig,
            pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
            **database_kwargs) -> Database:
    """Rebuild a database from a durability directory.

    Args:
        config: The durability parameters; ``config.directory`` is the
            directory to recover (WAL and/or checkpoints).  The returned
            database logs to the same directory.
        pointer_scheme: Scheme for a WAL-only recovery; overridden by the
            checkpoint manifest when one exists (the scheme is a physical
            property of the recovered pointers, not a per-session choice).
        **database_kwargs: Forwarded to :class:`Database` (``trs_config``,
            ``result_cache``, ``epoch_debug``).

    Returns:
        A live database with durability attached and recovery timings in
        ``durability_stats().recovery``.

    Raises:
        DurabilityError: If a checksum-valid WAL record fails to decode or
            re-apply, a checkpointed index definition fails to rebuild, or
            an index definition names a retired method — the
            write-ahead protocol only logs operations that succeeded, so
            this indicates tampering, a bug or a log of an older version,
            not a torn write (a :class:`~repro.errors.WalCorruptionError`
            for a record :func:`scan_wal` cannot read).
    """
    start = time.perf_counter()
    found = find_latest_checkpoint(config.directory)
    checkpoint_lsn = 0
    if found is not None:
        manifest, _ = found
        pointer_scheme = PointerScheme(manifest["pointer_scheme"])
        checkpoint_lsn = manifest["lsn"]
    database = Database(pointer_scheme=pointer_scheme, **database_kwargs)

    rebuild_start = time.perf_counter()
    checkpoint_load_s = rebuild_start - start
    if found is not None:
        manifest, arrays = found
        _restore_checkpoint(database, manifest, arrays)
        for definition in manifest["indexes"]:
            try:
                _apply_index_definition(database, definition)
            except DurabilityError:
                raise
            except Exception as error:  # noqa: BLE001 - as WAL replay below
                raise DurabilityError(
                    f"checkpointed index {definition.get('name')!r} failed "
                    f"to rebuild: {error}") from error

    replay_start = time.perf_counter()
    rebuild_s = replay_start - rebuild_start
    records, _valid_bytes = scan_wal(wal_path(config))
    replayed = 0
    for record in records:
        if record.lsn <= checkpoint_lsn:
            continue
        try:
            _apply_record(database, record)
        except DurabilityError:
            raise
        except Exception as error:  # noqa: BLE001 - any engine error here
            # means a checksum-valid record failed to re-apply; every such
            # failure must surface as DurabilityError, whatever its type.
            raise DurabilityError(
                f"WAL record lsn={record.lsn} op={record.op.name} failed to "
                f"replay: {error}"
            ) from error
        replayed += 1
    done = time.perf_counter()

    timings = RecoveryTimings(
        checkpoint_load_s=checkpoint_load_s,
        rebuild_s=rebuild_s,
        wal_replay_s=done - replay_start,
        records_replayed=replayed,
        total_s=done - start,
    )
    manager = DurabilityManager(
        config, resume=True, checkpoint_lsn=checkpoint_lsn,
        records_since_checkpoint=replayed, recovery=timings,
    )
    database.attach_durability(manager)
    return database
