"""DurabilityManager: the glue between ``Database`` and the WAL/checkpoints.

The manager owns the WAL appender and the checkpoint cadence.  ``Database``
calls one ``log_*`` hook per DDL/DML operation *after validating the inputs
and before mutating any state* (write-ahead), and ``maybe_auto_checkpoint``
after each mutation.  The default in-memory engine never constructs one, so
the hot paths pay a single ``is None`` test when durability is off.
"""

from __future__ import annotations

import os

from repro.durability.checkpoint import schema_to_manifest, write_checkpoint
from repro.durability.config import (
    DurabilityConfig,
    DurabilityStats,
    RecoveryTimings,
)
from repro.durability.wal import WalOp, WriteAheadLog
from repro.errors import DurabilityError

WAL_FILENAME = "wal.log"


def wal_path(config: DurabilityConfig) -> str:
    """The WAL file path of a durability directory."""
    return os.path.join(config.directory, WAL_FILENAME)


def directory_has_state(config: DurabilityConfig) -> bool:
    """Whether the durability directory already holds a WAL or checkpoint.

    A fresh ``Database(durability=...)`` refuses to open such a directory —
    silently appending to a previous run's log with a new, empty engine
    would corrupt the recovery story.  ``repro.durability.recovery.recover``
    is the entry point for existing state.
    """
    path = wal_path(config)
    if os.path.exists(path) and os.path.getsize(path) > 0:
        return True
    try:
        names = os.listdir(config.directory)
    except OSError:
        return False
    return any(name.startswith("checkpoint-") for name in names)


def _plain(values) -> list:
    """A batch column as a list of plain Python values (JSON-ready)."""
    return [value.item() if hasattr(value, "item") else value
            for value in values]


class DurabilityManager:
    """Write-ahead logging + checkpointing for one Database.

    Args:
        config: The durability parameters.
        resume: Set by recovery when attaching to a directory that already
            holds state; a fresh manager on a used directory raises.
        checkpoint_lsn: LSN covered by the newest checkpoint (resume only).
        records_since_checkpoint: WAL-tail length at attach time (resume
            only) — seeds the auto-checkpoint cadence and ``checkpoint_age``.
        recovery: Timings of the recovery that produced the database, if any.
    """

    def __init__(self, config: DurabilityConfig, *, resume: bool = False,
                 checkpoint_lsn: int = 0, records_since_checkpoint: int = 0,
                 recovery: RecoveryTimings | None = None) -> None:
        if not resume and directory_has_state(config):
            raise DurabilityError(
                f"durability directory {config.directory!r} already holds a "
                f"WAL or checkpoint; use repro.durability.recovery.recover() "
                f"to restore it (or point a fresh database at an empty "
                f"directory)"
            )
        os.makedirs(config.directory, exist_ok=True)
        self.config = config
        self.wal = WriteAheadLog(
            wal_path(config), fsync=config.fsync,
            fsync_interval=config.fsync_interval, opener=config.opener,
        )
        # After a checkpoint the WAL file is empty, so a reopened appender
        # would restart the LSN sequence below the checkpoint — and recovery
        # would then skip the new records.  Floor it at the checkpoint LSN.
        self.wal.last_lsn = max(self.wal.last_lsn, checkpoint_lsn)
        self.checkpoint_lsn = checkpoint_lsn
        self.records_since_checkpoint = records_since_checkpoint
        self.recovery = recovery

    # ----------------------------------------------------------------- logging

    def _log(self, op: WalOp, payload: dict) -> int:
        lsn = self.wal.append(op, payload)
        self.records_since_checkpoint += 1
        return lsn

    def log_create_table(self, schema) -> int:
        """Log a ``create_table`` for a :class:`TableSchema`."""
        return self._log(WalOp.CREATE_TABLE,
                         {"schema": schema_to_manifest(schema)})

    def log_create_index(self, definition: dict) -> int:
        """Log a ``create_index`` with its fully resolved definition."""
        return self._log(WalOp.CREATE_INDEX, definition)

    def log_drop_index(self, table_name: str, index_name: str) -> int:
        """Log a ``drop_index``."""
        return self._log(WalOp.DROP_INDEX,
                         {"table": table_name, "name": index_name})

    def log_insert_many(self, table_name: str, columns: dict) -> int:
        """Log a whole ``insert_many`` batch as one group-appended record."""
        return self._log(WalOp.INSERT_MANY,
                         {"table": table_name, "columns": columns})

    def log_update_many(self, table_name: str, locations,
                        columns: dict) -> int:
        """Log an ``update_many`` batch (raw, pre-coercion values; numpy
        scalars unwrapped, so the JSON round-trips bit-identically)."""
        return self._log(WalOp.UPDATE, {
            "table": table_name, "locations": _plain(locations),
            "columns": {name: _plain(values)
                        for name, values in columns.items()},
        })

    def log_delete_many(self, table_name: str, locations) -> int:
        """Log a ``delete_many`` batch as one record."""
        return self._log(WalOp.DELETE, {"table": table_name,
                                        "locations": _plain(locations)})

    # ------------------------------------------------------------ checkpoints

    def checkpoint(self, database) -> int:
        """Snapshot ``database`` and truncate the now-redundant WAL.

        Returns the LSN the checkpoint covers.  The WAL reset happens only
        after the manifest rename committed the checkpoint; a crash in
        between leaves stale (lsn <= checkpoint) records in the log, which
        recovery skips by LSN.
        """
        lsn = self.wal.last_lsn
        write_checkpoint(database, self.config.directory, lsn,
                         keep_checkpoints=self.config.keep_checkpoints)
        self.wal.reset()
        self.checkpoint_lsn = lsn
        self.records_since_checkpoint = 0
        return lsn

    def maybe_auto_checkpoint(self, database) -> bool:
        """Checkpoint when the configured record cadence has elapsed."""
        interval = self.config.checkpoint_interval_records
        if interval is None or self.records_since_checkpoint < interval:
            return False
        self.checkpoint(database)
        return True

    # ------------------------------------------------------------------- misc

    def flush(self) -> None:
        """Force the WAL out (fsync unless the policy is ``off``)."""
        self.wal.flush()

    def close(self) -> None:
        """Flush and close the WAL."""
        self.wal.close()

    def stats(self) -> DurabilityStats:
        """Current counters as a :class:`DurabilityStats`."""
        return DurabilityStats(
            enabled=True,
            wal_records=self.wal.records_appended,
            last_lsn=self.wal.last_lsn,
            wal_bytes=self.wal.bytes_appended,
            fsyncs=self.wal.sync_count,
            checkpoint_lsn=self.checkpoint_lsn,
            checkpoint_age=self.records_since_checkpoint,
            recovery=self.recovery,
        )
