"""Sharded scatter/gather execution: N engine instances behind one facade.

``ShardedDatabase`` partitions every table by primary-key range across
``num_shards`` single-core :class:`~repro.engine.database.Database`
instances and keeps the engine's request/result API
(:class:`~repro.engine.query.QueryRequest` in,
:class:`~repro.engine.query.QueryResult` out), so
:class:`repro.serving.Server` can sit in front of it unchanged.

Routing rules:

* **DDL** (``create_table`` / ``create_index`` / ``create_composite_index``
  / ``drop_index``) broadcasts to every shard — each shard owns a complete
  catalog over its slice of the rows.
* **DML** routes by primary key.  ``insert_many`` splits the column batch
  by the table's shard boundaries with one vectorized ``searchsorted`` and
  ships each shard its slice in one command; ``delete`` / ``update`` /
  ``fetch`` decode the owning shard from the global row location.
* **Reads** fan out to *every* shard: Hermit's whole premise is secondary
  predicates over non-key columns, and those do not align with a
  primary-key partitioning — any shard may hold matching rows.  Per-shard
  results come back as packed segment batches and merge as segments, with
  no per-request sort (see :meth:`ShardedDatabase.execute_many`).

Row locations are globalised as ``shard_index * LOCATION_STRIDE + local``
so they survive the round-trip through callers that later delete/update by
location.  Merged results differ from the single-engine ones in exactly
three documented ways: ``plan`` is ``None`` (plans hold live index
references and stay shard-side), ``epoch`` is ``None`` (each shard runs
its own epoch protocol, so a cross-shard read has no single epoch to
report), and ``breakdown`` is the whole batch's accounting summed across
shards rather than a per-plan-group slice.

Two transports share one command dispatcher
(:func:`repro.sharding.worker.dispatch_command`):

* ``mode="process"`` — one worker process per shard over a
  ``multiprocessing`` pipe; a fan-out pickles its command once and sends
  the bytes to all shards before receiving from any, so shards execute
  concurrently.  This is the parallel path the sharding benchmark
  measures.  A worker that dies fails the command with
  :class:`~repro.errors.ShardError` instead of hanging the router.
* ``mode="inline"`` — the same shard databases in-process, no pipes and
  no pickling.  Deterministic and cheap; what the equivalence tests use.

Writes are atomic per shard only: a multi-shard ``insert_many`` that fails
validation on one shard may have already applied on another (the fan-out
raises after draining every reply, so the pipes stay in sync).  The serving
tier's single-writer discipline makes this the same contract the WAL
already offers — one logical batch, applied in shard order.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Sequence

import numpy as np

from repro.cache.result_cache import ResultCacheConfig, ResultCacheStats
from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.lookup import LookupBreakdown
from repro.engine.database import Database
from repro.engine.planner import PlannerCacheStats
from repro.engine.query import QueryRequest, QueryResult
from repro.errors import CatalogError, ConfigurationError, SchemaError, ShardError
from repro.segments import interleave_segments, split_segments
from repro.sharding.worker import dispatch_command, shard_worker_main
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import TableSchema

# Global row location = shard_index * LOCATION_STRIDE + shard-local
# location.  2**32 leaves headroom for ~4e9 rows per shard and keeps the
# encoded value well inside int64 for any sane shard count.
LOCATION_STRIDE = 2 ** 32


def uniform_boundaries(low: float, high: float,
                       num_shards: int) -> list[float]:
    """Equal-width primary-key split points for ``num_shards`` shards."""
    if num_shards < 1:
        raise ConfigurationError("num_shards must be >= 1")
    return np.linspace(low, high, num_shards + 1)[1:-1].tolist()


class _InlineShard:
    """In-process shard: commands dispatch directly, replies are queued.

    Mirrors the process shard's encode/post/receive split so the router's
    fan-out code is transport-agnostic, and runs the identical
    :func:`~repro.sharding.worker.dispatch_command` body.  Messages stay
    objects: nothing is pickled in-process.
    """

    def __init__(self, pointer_scheme: PointerScheme,
                 trs_config: TRSTreeConfig,
                 result_cache: "ResultCacheConfig | None" = None) -> None:
        self.database = Database(pointer_scheme=pointer_scheme,
                                 trs_config=trs_config,
                                 result_cache=result_cache)
        self._replies: list[tuple[str, Any]] = []

    @staticmethod
    def encode(command: str, payload: Any) -> tuple[str, Any]:
        return command, payload

    def post(self, message: tuple[str, Any]) -> None:
        try:
            self._replies.append(
                ("ok", dispatch_command(self.database, *message)))
        except BaseException as error:  # noqa: BLE001 - symmetric transport
            self._replies.append(("error", error))

    def receive(self) -> tuple[str, Any]:
        return self._replies.pop(0)

    def close(self) -> None:
        self.database.close()


class _ProcessShard:
    """One worker process per shard, spoken to over a duplex pipe.

    A message is the pickle ``Connection.send`` would have written, so the
    worker's ``recv()`` reads it unchanged; encoding it once lets a fan-out
    hand the same bytes to every shard.
    """

    def __init__(self, index: int, pointer_scheme: PointerScheme,
                 trs_config: TRSTreeConfig,
                 result_cache: "ResultCacheConfig | None" = None) -> None:
        self._index = index
        context = multiprocessing.get_context()
        self._connection, child = context.Pipe()
        self._process = context.Process(
            target=shard_worker_main,
            args=(child, pointer_scheme, trs_config, result_cache),
            daemon=True,
        )
        self._process.start()
        child.close()

    @staticmethod
    def encode(command: str, payload: Any) -> memoryview:
        return ForkingPickler.dumps((command, payload))

    def post(self, message: memoryview) -> None:
        try:
            self._connection.send_bytes(message)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the worker is gone; receive() reports it

    def receive(self) -> tuple[str, Any]:
        """The next reply; a :class:`ShardError` one if the worker died.

        Waits on the pipe and the process sentinel together, so a worker
        that exits without replying fails the command instead of blocking
        the router forever.
        """
        ready = wait([self._connection, self._process.sentinel])
        if self._connection in ready:
            try:
                return self._connection.recv()
            except EOFError:
                pass
        self._process.join(timeout=5.0)
        return "error", ShardError(
            f"shard {self._index} worker exited with code "
            f"{self._process.exitcode} before replying")

    def close(self) -> None:
        try:
            self._connection.send(("close", None))
            self._connection.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._connection.close()


class ShardedDatabase:
    """Primary-key-range sharded facade over N engine instances.

    Args:
        num_shards: Number of shard databases.
        mode: ``"process"`` for one worker process per shard (parallel
            execution), ``"inline"`` for in-process shards (deterministic,
            no fork — the equivalence-testing transport).
        pointer_scheme: Forwarded to every shard database.
        trs_config: Forwarded to every shard database.
        result_cache: Forwarded to every shard database — each shard runs
            its own epoch-keyed result cache over its partition (the
            budget is per shard), and :meth:`result_cache_info` reports
            the counters merged across shards, so ``serving.Server``
            observes one composed cache.
    """

    def __init__(self, num_shards: int = 4, mode: str = "process",
                 pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                 trs_config: TRSTreeConfig = DEFAULT_CONFIG,
                 result_cache: "ResultCacheConfig | None" = None) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if mode not in ("process", "inline"):
            raise ConfigurationError(
                f"mode must be 'process' or 'inline', got {mode!r}")
        self.num_shards = num_shards
        self.mode = mode
        self.pointer_scheme = pointer_scheme
        settings = (pointer_scheme, trs_config, result_cache)
        if mode == "process":
            self._shards = [_ProcessShard(index, *settings)
                            for index in range(num_shards)]
        else:
            self._shards = [_InlineShard(*settings)
                            for _ in range(num_shards)]
        self._encode = self._shards[0].encode
        self._schemas: dict[str, TableSchema] = {}
        self._boundaries: dict[str, np.ndarray] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Transport plumbing

    def _post(self, shard_indexes: Sequence[int], command: str,
              payload: Any) -> None:
        """Encode ``(command, payload)`` once; post it to every listed shard."""
        message = self._encode(command, payload)
        for shard_index in shard_indexes:
            self._shards[shard_index].post(message)

    def _drain(self, shard_indexes: Sequence[int]) -> list[Any]:
        """Receive one reply per listed shard; raise only after draining.

        Raising on the first error would leave later replies unread and
        desynchronise those pipes for every subsequent command, so errors
        (a dead worker's :class:`ShardError` included) are collected and
        the first one re-raised once all replies are in.
        """
        values: list[Any] = []
        first_error: BaseException | None = None
        for shard_index in shard_indexes:
            status, value = self._shards[shard_index].receive()
            if status == "error" and first_error is None:
                first_error = value
            values.append(value)
        if first_error is not None:
            raise first_error
        return values

    def _broadcast(self, command: str, payload: Any) -> list[Any]:
        """Send one command to every shard, then gather every reply."""
        everyone = range(self.num_shards)
        self._post(everyone, command, payload)
        return self._drain(everyone)

    def _call(self, shard_index: int, command: str, payload: Any) -> Any:
        self._post([shard_index], command, payload)
        return self._drain([shard_index])[0]

    # ------------------------------------------------------------------
    # Routing helpers

    def _locate(self, location: int) -> tuple[int, int]:
        """Decode a global row location into (shard_index, local location)."""
        shard_index, local = divmod(int(location), LOCATION_STRIDE)
        if not 0 <= shard_index < self.num_shards:
            raise ConfigurationError(
                f"location {location} does not belong to any of "
                f"{self.num_shards} shards")
        return shard_index, local

    def _schema(self, table_name: str) -> TableSchema:
        try:
            return self._schemas[table_name]
        except KeyError:
            raise CatalogError(
                f"table {table_name!r} does not exist") from None

    def _shard_of_key(self, table_name: str, key: float) -> int:
        boundaries = self._boundaries[table_name]
        if boundaries.size == 0:
            return 0
        return int(np.searchsorted(boundaries, key, side="right"))

    # ------------------------------------------------------------------
    # DDL

    def create_table(self, schema: TableSchema,
                     boundaries: "Sequence[float] | None" = None) -> None:
        """Create ``schema`` on every shard, partitioned at ``boundaries``.

        ``boundaries`` is the ``num_shards - 1`` ascending primary-key
        split points (shard ``i`` owns keys in ``(boundaries[i-1],
        boundaries[i]]`` under ``searchsorted(..., side="right")``
        semantics); see :func:`uniform_boundaries` for the equal-width
        helper.  With one shard it may be omitted.
        """
        if boundaries is None:
            if self.num_shards > 1:
                raise ConfigurationError(
                    f"table {schema.name!r} needs {self.num_shards - 1} "
                    "primary-key boundaries for "
                    f"{self.num_shards} shards (see uniform_boundaries)")
            boundaries = []
        edges = np.asarray(list(boundaries), dtype=np.float64)
        if edges.size != self.num_shards - 1:
            raise ConfigurationError(
                f"expected {self.num_shards - 1} boundaries, "
                f"got {edges.size}")
        if edges.size and not np.all(np.diff(edges) > 0):
            raise ConfigurationError("boundaries must be strictly ascending")
        self._broadcast("create_table", schema)
        self._schemas[schema.name] = schema
        self._boundaries[schema.name] = edges

    def create_index(self, name: str, table_name: str, column: str,
                     **kwargs: Any) -> None:
        """Create a secondary index on every shard.

        Accepts the keyword surface of :meth:`Database.create_index`.
        Returns ``None`` rather than an ``IndexEntry`` — the entries live
        shard-side.
        """
        payload = {"name": name, "table_name": table_name, "column": column,
                   **kwargs}
        self._broadcast("create_index", payload)

    def create_composite_index(self, name: str, table_name: str,
                               leading_column: str, second_column: str,
                               **kwargs: Any) -> None:
        """Create a composite secondary index on every shard."""
        payload = {"name": name, "table_name": table_name,
                   "leading_column": leading_column,
                   "second_column": second_column, **kwargs}
        self._broadcast("create_composite_index", payload)

    def drop_index(self, table_name: str, index_name: str) -> None:
        """Drop a secondary index on every shard."""
        self._broadcast("drop_index", (table_name, index_name))

    # ------------------------------------------------------------------
    # DML

    def insert_many(self, table_name: str,
                    columns: "dict[str, Sequence]") -> list[int]:
        """Bulk-insert, split per owning shard, global locations returned.

        The primary-key column is routed with one vectorized
        ``searchsorted`` against the table's boundaries; each involved
        shard receives its whole slice as one column batch (numpy columns
        sliced by fancy index, list columns — strings — by comprehension).
        The returned locations are globalised and in input order.  The
        batch is schema-checked before it is routed, as one engine checks
        it: a missing primary key is a ``SchemaError``, not a routing fault.
        """
        schema = self._schema(table_name)
        if not schema.validate_columns(columns):
            return []
        keys = np.asarray(columns[schema.primary_key], dtype=np.float64)
        boundaries = self._boundaries[table_name]
        if boundaries.size:
            shard_ids = np.searchsorted(boundaries, keys, side="right")
        else:
            shard_ids = np.zeros(keys.size, dtype=np.int64)
        global_locations = np.empty(keys.size, dtype=np.int64)
        involved: list[tuple[int, np.ndarray]] = []
        for shard_index in range(self.num_shards):
            positions = np.flatnonzero(shard_ids == shard_index)
            if positions.size == 0:
                continue
            part = {
                name: (np.asarray(values)[positions]
                       if not isinstance(values, list)
                       else [values[i] for i in positions.tolist()])
                for name, values in columns.items()
            }
            self._post([shard_index], "insert_many", (table_name, part))
            involved.append((shard_index, positions))
        replies = self._drain([shard_index for shard_index, _ in involved])
        for (shard_index, positions), locations in zip(involved, replies):
            global_locations[positions] = (
                np.asarray(locations, dtype=np.int64)
                + shard_index * LOCATION_STRIDE)
        return global_locations.tolist()

    def insert(self, table_name: str, row: dict) -> int:
        """Insert one row, returning its global location; refused like
        :meth:`Database.insert` when empty."""
        locations = self.insert_many(
            table_name, {name: [value] for name, value in row.items()})
        if not locations:
            raise SchemaError("insert received an empty row")
        return locations[0]

    def delete(self, table_name: str, location: int) -> None:
        """Delete the row at global ``location`` on its owning shard."""
        shard_index, local = self._locate(location)
        self._call(shard_index, "delete", (table_name, local))

    def update(self, table_name: str, location: int, changes: dict) -> int:
        """Update a row; returns its (possibly new) global location.

        A primary-key change that crosses a shard boundary cannot stay in
        place: the row is fetched, patched, inserted into the new owner and
        only then deleted from the old shard — so a patched row the new
        owner rejects leaves the row where it was — and unlike
        :meth:`Database.update` the location can change, and the new one
        is returned (unchanged updates return the old location).
        """
        shard_index, local = self._locate(location)
        pk = self._schema(table_name).primary_key
        if pk in changes:
            target = self._shard_of_key(table_name, float(changes[pk]))
            if target != shard_index:
                row = self._call(shard_index, "fetch", (table_name, local))
                row.update(changes)
                new_local = self._call(
                    target, "insert_many",
                    (table_name, {k: [v] for k, v in row.items()}))[0]
                self._call(shard_index, "delete", (table_name, local))
                return target * LOCATION_STRIDE + int(new_local)
        self._call(shard_index, "update", (table_name, local, changes))
        return int(location)

    def fetch(self, table_name: str, location: int) -> dict:
        """Fetch the row at global ``location`` from its owning shard."""
        shard_index, local = self._locate(location)
        return self._call(shard_index, "fetch", (table_name, local))

    def reorganize(self) -> int:
        """Run every shard's :meth:`Database.reorganize`; returns the total
        number of nodes rebuilt."""
        return sum(self._broadcast("reorganize", None))

    # ------------------------------------------------------------------
    # Reads

    def execute_many(self,
                     requests: Sequence[QueryRequest]) -> list[QueryResult]:
        """Answer a request batch: fan out to every shard, merge per request.

        All shards receive the whole batch — encoded once — before any
        reply is read, so under ``mode="process"`` the shards execute
        concurrently.  Each request's merged result is the shard-order
        concatenation of the globalised per-shard location sets, and that
        needs no sort: every shard's set is sorted and duplicate-free (the
        ``QueryResult.locations`` contract), and globalising puts shard
        ``s``'s set inside ``[s * LOCATION_STRIDE, (s + 1) *
        LOCATION_STRIDE)``, so the shard-order concatenation is already
        ascending.  The whole batch merges as one segmented pass per shard.
        ``used_index`` and ``group_size`` are reported from shard 0
        (shards plan independently but against identically-partitioned
        catalogs, so they agree in practice), ``breakdown`` is the batch
        total across shards, and ``epoch`` is ``None`` — see the module
        docstring.
        """
        requests = list(requests)
        if not requests:
            return []
        replies = self._broadcast("execute_many", requests)
        merged_breakdown = LookupBreakdown()
        for reply in replies:
            merged_breakdown.merge(reply[5])
        values, offsets = replies[0][0], replies[0][1]
        for shard_index, reply in enumerate(replies[1:], start=1):
            values, offsets = interleave_segments(
                values, offsets,
                reply[0] + shard_index * LOCATION_STRIDE, reply[1])
        return [
            QueryResult(locations=locations, breakdown=merged_breakdown,
                        used_index=used_index, group_size=group_size,
                        epoch=None)
            for locations, used_index, group_size in zip(
                split_segments(values, offsets), replies[0][2],
                replies[0][3])
        ]

    def execute(self, request: QueryRequest) -> QueryResult:
        """Answer one request (thin wrapper over :meth:`execute_many`)."""
        return self.execute_many([request])[0]

    # ------------------------------------------------------------------
    # Observability (the surface repro.serving.Server reads)

    def planner_cache_stats(self) -> PlannerCacheStats:
        """Plan-cache counters summed across every shard's planner."""
        replies = self._broadcast("planner_info", None)
        return PlannerCacheStats(
            hits=sum(reply[0].hits for reply in replies),
            misses=sum(reply[0].misses for reply in replies),
            replays=sum(reply[0].replays for reply in replies),
        )

    def planner_cache_info(self) -> "dict[str, PlannerCacheStats]":
        """Per-table plan-cache counters summed across shards."""
        replies = self._broadcast("planner_info", None)
        totals: dict[str, list[int]] = {}
        for reply in replies:
            for table_name, stats in reply[1].items():
                entry = totals.setdefault(table_name, [0, 0, 0])
                entry[0] += stats.hits
                entry[1] += stats.misses
                entry[2] += stats.replays
        return {
            table_name: PlannerCacheStats(hits=hits, misses=misses,
                                          replays=replays)
            for table_name, (hits, misses, replays) in sorted(totals.items())
        }

    def result_cache_info(self) -> ResultCacheStats:
        """Result-cache counters merged across every shard's cache.

        Counters, entries and bytes sum; ``enabled`` is true when any
        shard probes (all shards share one construction-time config, so
        they agree in practice).  The same surface
        :meth:`Database.result_cache_info` offers, which is what lets
        ``serving.Server`` report result-cache stats for a sharded
        backend unchanged.
        """
        return ResultCacheStats.merge(
            self._broadcast("result_cache_info", None))

    def result_cache_clear(self) -> None:
        """Drop every shard's cached results (counters survive)."""
        self._broadcast("result_cache_clear", None)

    def num_rows(self, table_name: str) -> int:
        """Total live rows across shards."""
        return sum(self.shard_row_counts(table_name))

    def shard_row_counts(self, table_name: str) -> list[int]:
        """Per-shard live row counts (partition-balance observability)."""
        return self._broadcast("num_rows", table_name)

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        """Shut down every shard (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
