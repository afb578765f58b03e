"""The database facade.

``Database`` glues the substrates together the way the paper's host RDBMS
does: tables with primary indexes, conventional complete secondary indexes,
and — when a usable correlation exists — Hermit indexes that piggyback on a
host index instead of storing every key.  It is the public API the examples
and benchmarks are written against.

Typical usage::

    db = Database(pointer_scheme=PointerScheme.PHYSICAL)
    table = db.create_table(schema)
    db.insert_many("stock_history", columns)
    db.create_index("idx_dj", "stock_history", "dj")            # complete index
    db.create_index("idx_sp", "stock_history", "sp",
                    method=IndexMethod.AUTO)                     # becomes a Hermit index
    result = db.execute(QueryRequest.range("stock_history", "sp", 900, 950))
    result = db.execute(QueryRequest.of("stock_history", [
        RangePredicate("sp", 900, 950), RangePredicate("dj", 8_000, 9_000),
    ]))                               # cost-based plan, sorted int64 locations

Reads route through the cost-based planner (``engine/planner.py``): the
catalog's per-column statistics pick the cheapest access path per
predicate, candidate tid sets are intersected vectorized, and one batched
base-table pass validates every predicate.

One request in, one result out: the planned reads are
:meth:`Database.execute` (one :class:`~repro.engine.query.QueryRequest`
in, one :class:`~repro.engine.query.QueryResult` out),
:meth:`Database.execute_many` (a request batch, grouped by table and plan
shape internally) and :meth:`Database.explain` (the plan of a request,
without executing it).  ``execute`` and ``execute_many`` each reach one of
the two read pipelines directly —
:func:`~repro.engine.executor.execute_plan` for one request,
:func:`~repro.engine.executor.execute_plan_many` for a batch — and the
caller's batch size is what selects between them;
:meth:`~repro.engine.query.QueryRequest.of` is the one place a bare
predicate or predicate list becomes a request.  ``query_with`` forces one
named index through the single-request pipeline and ``query_with_many``
through the batch one — the only way a mechanism is read by name, so
mechanism-vs-mechanism comparisons run the engine's own pipelines under
its read epoch.  Every result's
``locations`` is a sorted, duplicate-free int64 array (the contract is
stated on :class:`~repro.engine.query.QueryResult`).  Every read runs
under the shared side of the database's
:class:`~repro.engine.epochs.EpochManager` and every mutation under the
exclusive side, so concurrent front ends (``repro.serving``) get
epoch-consistent results — a read never observes a half-applied mutation.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np

from repro.baselines.correlation_maps import CorrelationMap
from repro.baselines.secondary import BaselineSecondaryIndex
from repro.cache.result_cache import (
    ResultCache,
    ResultCacheConfig,
    ResultCacheStats,
    canonical_key,
)
from repro.core.config import DEFAULT_CONFIG, TRSTreeConfig
from repro.core.hermit import HermitIndex
from repro.core.lookup import LookupBreakdown
from repro.correlation.advisor import HostColumnAdvisor
from repro.engine.access_path import MechanismPath
from repro.engine.catalog import Catalog, IndexEntry, IndexMethod, TableEntry
from repro.engine.executor import execute_plan, execute_plan_many
from repro.durability.config import DurabilityConfig, DurabilityStats
from repro.durability.manager import DurabilityManager
from repro.engine.epochs import EpochManager
from repro.engine.planner import Plan, PlanGroup, Planner, PlannerCacheStats
from repro.engine.query import (
    ConjunctiveQuery,
    QueryRequest,
    QueryResult,
    RangePredicate,
)
from repro.errors import CatalogError, DurabilityError, QueryError, SchemaError
from repro.index.base import KeyRanges
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.memory import MemoryReport
from repro.storage.schema import TableSchema
from repro.storage.table import Table


class Database:
    """An in-memory RDBMS substrate hosting Hermit and its baselines.

    Args:
        pointer_scheme: Tuple-identifier scheme used by all secondary indexes.
        trs_config: Default TRS-Tree parameters for Hermit indexes.
        durability: When given, every DDL/DML operation is write-ahead
            logged to ``durability.directory`` before it is applied, and
            :meth:`checkpoint` / auto-checkpointing become available.  The
            directory must be empty of prior state — use
            :func:`repro.durability.recovery.recover` to reopen one.  The
            default (``None``) keeps the engine purely in memory at zero
            added cost.
        result_cache: When given, an epoch-keyed result cache
            (``repro.cache``) with this memory budget serves repeated
            queries from their stored post-validation location arrays:
            every planned read (``execute`` / ``execute_many``) probes it
            under the shared epoch side before planning and fills it on
            miss, and entries whose
            stamped ``data_epoch`` fell behind the table's are evicted on
            probe (plus a sweep on :meth:`checkpoint`).  The default
            (``None``) keeps the read path exactly as before — opt-in
            like durability, because caching repeated requests changes
            what throughput benchmarks measure.
        epoch_debug: Switch on the epoch-lock discipline checker
            (``EpochManager(debug=True)``): catalog mutations outside the
            exclusive side, upgrade attempts and lock-order inversions
            raise :class:`~repro.errors.EpochDisciplineError` with the
            acquisition stacks involved.  For tests and debugging; the
            default keeps the lean production path.
    """

    def __init__(self, pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                 trs_config: TRSTreeConfig = DEFAULT_CONFIG,
                 durability: DurabilityConfig | None = None,
                 result_cache: ResultCacheConfig | None = None,
                 epoch_debug: bool = False) -> None:
        self.pointer_scheme = pointer_scheme
        self.trs_config = trs_config
        # Host-column advisor consulted by ``IndexMethod.AUTO``.
        self.advisor = HostColumnAdvisor()
        # Reader-writer epoch protocol: reads share, DDL/DML excludes.  One
        # manager per database (see repro.engine.epochs for why coarse).
        # The catalog reports its mutations to the manager's discipline
        # checker (a no-op unless epoch_debug is on).
        self.epochs = EpochManager(debug=epoch_debug)
        self.catalog = Catalog(epoch_guard=self.epochs.note_mutation)
        self.planner = Planner(self.catalog, pointer_scheme)
        self._durability: DurabilityManager | None = (
            DurabilityManager(durability) if durability is not None else None
        )
        self._result_cache: ResultCache | None = (
            ResultCache(result_cache) if result_cache is not None else None
        )

    # ------------------------------------------------------------------ DDL

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table along with its primary index."""
        with self.epochs.write():
            if schema.name in self.catalog:
                raise CatalogError(f"table {schema.name!r} already exists")
            if self._durability is not None:
                self._durability.log_create_table(schema)
            table = Table(schema)
            primary_index = OrderedIndex()
            self.catalog.add_table(schema.name, table, primary_index)
            return table

    def create_index(self, name: str, table_name: str, column: str,
                     method: IndexMethod = IndexMethod.BTREE,
                     host_column: str | None = None,
                     trs_config: TRSTreeConfig | None = None,
                     cm_target_bucket_width: float | None = None,
                     cm_host_bucket_width: float | None = None,
                     preexisting: bool = False) -> IndexEntry:
        """Create a secondary index on ``column``.

        Args:
            name: Index name (unique per table).
            table_name: Table to index.
            column: Target column.
            method: Physical mechanism; ``AUTO`` asks the correlation advisor
                whether a Hermit index is viable and falls back to ``BTREE``.
            host_column: Host column for HERMIT/CORRELATION_MAP; discovered
                automatically when omitted.
            trs_config: Per-index TRS-Tree parameter override.
            cm_target_bucket_width: Target bucket width for CORRELATION_MAP.
            cm_host_bucket_width: Host bucket width for CORRELATION_MAP.
            preexisting: Mark the index as pre-existing for the space
                breakdown accounting ("Existing Indexes" vs "New Indexes").

        Returns:
            The catalog entry of the new index.
        """
        with self.epochs.write():
            return self._create_index(
                name, table_name, column, method, host_column, trs_config,
                cm_target_bucket_width, cm_host_bucket_width, preexisting)

    def _create_index(self, name: str, table_name: str, column: str,
                      method: IndexMethod, host_column: str | None,
                      trs_config: TRSTreeConfig | None,
                      cm_target_bucket_width: float | None,
                      cm_host_bucket_width: float | None,
                      preexisting: bool) -> IndexEntry:
        """:meth:`create_index` body, called under the write side."""
        entry = self.catalog.table_entry(table_name)
        table = entry.table
        table.schema.position_of(column)
        if name in entry.indexes:
            raise CatalogError(
                f"index {name!r} already exists on table {table_name!r}"
            )

        if method is IndexMethod.AUTO:
            method, host_column = self._advise(entry, column, host_column)

        # Resolve everything that can fail *before* the WAL record is
        # written: the log must only ever hold operations that succeed.
        host_index = None
        if method is IndexMethod.HERMIT:
            host_column = host_column or self._advise(entry, column, None)[1]
            host_index = self._host_index_for(entry, column, host_column)
        elif method is IndexMethod.CORRELATION_MAP:
            if host_column is None:
                raise QueryError("CORRELATION_MAP requires an explicit host column")
            if cm_target_bucket_width is None or cm_host_bucket_width is None:
                raise QueryError("CORRELATION_MAP requires both bucket widths")
            host_index = self._host_index_for(entry, column, host_column)
        elif method is not IndexMethod.BTREE:
            raise QueryError(f"unsupported index method {method!r}")

        definition = {
            "name": name, "table": table_name, "column": column,
            "method": method.value, "host_column": host_column,
            "trs_config": asdict(trs_config) if trs_config is not None else None,
            "cm_target_bucket_width": cm_target_bucket_width,
            "cm_host_bucket_width": cm_host_bucket_width,
            "preexisting": preexisting,
        }
        if self._durability is not None:
            self._durability.log_create_index(definition)

        if method is IndexMethod.BTREE:
            mechanism: object = BaselineSecondaryIndex(
                table, column, primary_index=entry.primary_index,
                pointer_scheme=self.pointer_scheme,
            )
            mechanism.build()
        elif method is IndexMethod.HERMIT:
            mechanism = HermitIndex(
                table, column, host_column, host_index,
                primary_index=entry.primary_index,
                pointer_scheme=self.pointer_scheme,
                config=trs_config or self.trs_config,
            )
            mechanism.build()
        else:
            mechanism = CorrelationMap(
                table, column, host_column, host_index,
                target_bucket_width=cm_target_bucket_width,
                host_bucket_width=cm_host_bucket_width,
                primary_index=entry.primary_index,
                pointer_scheme=self.pointer_scheme,
            )
            mechanism.build()

        index_entry = IndexEntry(
            name=name, table_name=table_name, column=column, method=method,
            mechanism=mechanism, host_column=host_column,
            is_preexisting=preexisting, definition=definition,
        )
        self.catalog.add_index(index_entry)
        return index_entry

    def drop_index(self, table_name: str, index_name: str) -> None:
        """Drop a secondary index."""
        with self.epochs.write():
            entry = self.catalog.table_entry(table_name)
            if index_name not in entry.indexes:
                raise CatalogError(
                    f"index {index_name!r} does not exist on table "
                    f"{table_name!r}"
                )
            if self._durability is not None:
                self._durability.log_drop_index(table_name, index_name)
            self.catalog.drop_index(table_name, index_name)

    def _advise(self, entry: TableEntry, column: str,
                host_column: str | None) -> tuple[IndexMethod, str | None]:
        """Ask the advisor whether a Hermit index is viable for ``column``."""
        candidates = [host_column] if host_column else self.catalog.indexed_columns(
            entry.name
        )
        if not candidates:
            return IndexMethod.BTREE, None
        recommendation = self.advisor.recommend(entry.table, column, candidates)
        if recommendation.use_hermit:
            return IndexMethod.HERMIT, recommendation.host_column
        return IndexMethod.BTREE, None

    def _host_index_for(self, entry: TableEntry, target_column: str,
                        host_column: str | None):
        """Resolve the complete index backing ``host_column``."""
        if host_column is None:
            raise QueryError(
                f"no host column available for a correlation-based index on "
                f"{target_column!r}"
            )
        if host_column == entry.table.schema.primary_key:
            return entry.primary_index
        host_entries = [
            e for e in self.catalog.indexes_on_column(entry.name, host_column)
            if e.method is IndexMethod.BTREE
        ]
        if not host_entries:
            raise CatalogError(
                f"column {host_column!r} has no complete index to serve as host"
            )
        return host_entries[0].mechanism.index

    # ------------------------------------------------------------------ DML

    def insert(self, table_name: str, row: dict) -> int:
        """Insert a row: an :meth:`insert_many` of one, so one validation
        and one error for each fault.  An empty row — a batch of none to
        ``insert_many`` — is refused here, as a row without its key.
        """
        locations = self.insert_many(
            table_name, {name: [value] for name, value in row.items()})
        if not locations:
            raise SchemaError("insert received an empty row")
        return locations[0]

    def insert_many(self, table_name: str, columns: dict[str, Sequence]) -> list[int]:
        """Bulk-insert column-oriented data, maintaining all indexes in bulk.

        The batch write path mirrors the vectorized lookup path: one
        :meth:`Table.validate_insert_many` check, one
        :meth:`Table.insert_many` append, one batched primary-index
        ``insert_many`` (which loads an empty index and merges into a
        populated one) and one column-oriented
        ``insert_many`` notification per secondary mechanism — no per-row
        ``fetch`` and no per-row index descent anywhere.  Every index keys
        the stored values (``2.7`` into an INT64 column is keyed ``2``).

        Returns:
            The locations of the inserted rows, in insertion order.
        """
        with self.epochs.write():
            entry = self.catalog.table_entry(table_name)
            table = entry.table
            batch = table.validate_insert_many(columns)
            if not batch.slots.size:
                return []
            if self._durability is not None:
                self._durability.log_insert_many(table_name, columns)
            table.insert_many(batch)
            entry.primary_index.insert_many(
                np.asarray(batch.columns[table.schema.primary_key],
                           dtype=np.float64), batch.slots)
            for index_entry in entry.indexes.values():
                index_entry.mechanism.insert_many(batch.columns, batch.slots)
            self.catalog.bump_data_epoch(table_name)
            if self._durability is not None:
                self._durability.maybe_auto_checkpoint(self)
            return batch.slots.tolist()

    def delete(self, table_name: str, location: int) -> None:
        """Delete the row at ``location``: a :meth:`delete_many` of one."""
        self.delete_many(table_name, [location])

    def delete_many(self, table_name: str,
                    locations: "Sequence[int] | np.ndarray") -> None:
        """Delete the rows at ``locations``, maintaining every index in bulk.

        Validated whole before anything is logged or touched (every
        location live and listed once), logged as one WAL record and
        applied under one write epoch with one data-epoch bump.
        """
        with self.epochs.write():
            entry = self.catalog.table_entry(table_name)
            table = entry.table
            batch = table.validate_locations(locations)
            slots = batch.slots
            if not slots.size:
                return
            if self._durability is not None:
                self._durability.log_delete_many(table_name, slots)
            rows = _stored_rows(table, slots)
            for index_entry in entry.indexes.values():
                index_entry.mechanism.delete_many(rows, slots)
            entry.primary_index.delete_many(
                np.asarray(rows[table.schema.primary_key], dtype=np.float64),
                slots)
            table.delete_many(batch)
            self.catalog.bump_data_epoch(table_name)
            if self._durability is not None:
                self._durability.maybe_auto_checkpoint(self)

    def update(self, table_name: str, location: int, changes: dict) -> None:
        """Update a row in place: an :meth:`update_many` of one."""
        self.update_many(table_name, [location],
                         {name: [value] for name, value in changes.items()})

    def update_many(self, table_name: str,
                    locations: "Sequence[int] | np.ndarray",
                    columns: dict[str, Sequence]) -> None:
        """Update rows in place, maintaining every index in bulk.

        ``columns`` maps a column name to the rows' new values, aligned
        with ``locations``.  Validated whole like :meth:`delete_many`, and
        every column known (an unknown one is a ``SchemaError``, as for an
        insert) and coercible.  Every mechanism sees the stored rows before
        and after: the old rows gathered once, the new ones those with the
        batch's stored columns laid over them.  A changed primary key moves
        its row's primary-index entry (a stale one would lose the row under
        logical pointers).
        """
        with self.epochs.write():
            entry = self.catalog.table_entry(table_name)
            table = entry.table
            batch = table.validate_update_many(locations, columns)
            slots = batch.slots
            if not slots.size:
                return
            if self._durability is not None:
                self._durability.log_update_many(table_name, slots, columns)
            old_rows = _stored_rows(table, slots)
            new_rows = {**old_rows, **batch.columns}
            table.update_many(batch)
            primary = table.schema.primary_key
            old_keys = np.asarray(old_rows[primary], dtype=np.float64)
            new_keys = np.asarray(new_rows[primary], dtype=np.float64)
            moved = old_keys != new_keys
            if moved.any():
                entry.primary_index.delete_many(old_keys[moved], slots[moved])
                entry.primary_index.insert_many(new_keys[moved],
                                                slots[moved])
            for index_entry in entry.indexes.values():
                index_entry.mechanism.update_many(old_rows, new_rows, slots)
            self.catalog.bump_data_epoch(table_name)
            if self._durability is not None:
                self._durability.maybe_auto_checkpoint(self)

    # ------------------------------------------------------------ maintenance

    def reorganize(self) -> int:
        """Run every Hermit index's pending TRS-Tree rebuilds; returns the
        number of nodes rebuilt.

        The one maintenance entry point.  Writes only flag candidate
        nodes; this rebuilds them from the base table under the write
        epoch, so no read runs beside a half-installed rebuild.  A rebuild
        changes no answer: no data epoch moves (cached results stay
        valid) and nothing is logged.
        """
        with self.epochs.write():
            return sum(index_entry.mechanism.reorganize()
                       for entry in self.catalog.tables()
                       for index_entry in entry.indexes.values()
                       if isinstance(index_entry.mechanism, HermitIndex))

    # ------------------------------------------------------------- durability

    @property
    def durability(self) -> DurabilityManager | None:
        """The attached durability manager, or ``None`` when disabled."""
        return self._durability

    def attach_durability(self, manager: DurabilityManager) -> None:
        """Attach a resumed durability manager (used by recovery)."""
        if self._durability is not None:
            raise DurabilityError("durability is already attached")
        self._durability = manager

    def checkpoint(self) -> int:
        """Snapshot all tables and truncate the WAL; returns the covered LSN.

        Raises:
            DurabilityError: If durability is not enabled.
        """
        if self._durability is None:
            raise DurabilityError("durability is not enabled on this database")
        # The snapshot must observe the engine between mutations: the
        # shared side excludes writers without blocking other reads (and
        # is reentrant under the write side for auto-checkpoints).
        with self.epochs.read():
            lsn = self._durability.checkpoint(self)
            if self._result_cache is not None:
                # Piggyback the result cache's stale sweep on the
                # checkpoint's full walk: lazily-invalidated entries that
                # no probe revisits stop squatting in the byte budget.
                self._result_cache.sweep({
                    entry.name: entry.data_epoch
                    for entry in self.catalog.tables()
                })
            return lsn

    def flush_wal(self) -> None:
        """Force the WAL to stable storage (no-op when durability is off)."""
        if self._durability is not None:
            self._durability.flush()

    def durability_stats(self) -> DurabilityStats:
        """WAL/checkpoint/recovery counters; ``enabled=False`` when off."""
        if self._durability is None:
            return DurabilityStats(enabled=False)
        return self._durability.stats()

    def close(self) -> None:
        """Flush and close the WAL, if any.  The database stays queryable."""
        if self._durability is not None:
            self._durability.close()

    # ---------------------------------------------------------------- queries

    def execute(self, request: QueryRequest) -> QueryResult:
        """Answer one :class:`QueryRequest` — the canonical read entry point.

        Point, range and conjunctive requests all take this path: the
        planner picks the cheapest access path per predicate from the
        catalog statistics (point probes hit its single-column fast path),
        the executor intersects the candidate tid sets, resolves pointers
        once and validates every predicate in one batched base-table pass —
        all under the read side of the epoch protocol, and the result
        records the write epoch it observed.  With a result cache attached
        the request is probed first and installed on a miss; a hit carries
        the stored read-only array and no plan, exactly as in
        :meth:`execute_many`.
        """
        table_name, query = request.table, request.query
        cache = self._result_cache
        with self.epochs.read() as epoch:
            entry = self.catalog.table_entry(table_name)
            key = (canonical_key(query)
                   if cache is not None and cache.enabled else None)
            if key is not None:
                hit = cache.get_many(table_name, [key], entry.data_epoch)[0]
                if hit is not None:
                    count = int(hit.locations.size)
                    return QueryResult(
                        hit.locations,
                        LookupBreakdown(lookups=1, candidates=count,
                                        results=count),
                        hit.used_index, None, 1, epoch)
            plan = self.planner.plan(table_name, query)
            locations, breakdown = execute_plan(
                plan, entry, self.pointer_scheme, entry.primary_index)
            if key is not None:
                cache.put_many(table_name, [(key, locations, plan.used_index)],
                               entry.data_epoch)
        return QueryResult(locations, breakdown, plan.used_index, plan, 1,
                           epoch)

    def execute_many(self,
                     requests: Sequence[QueryRequest]) -> list[QueryResult]:
        """Answer a request batch, batched end to end — the serving path.

        Requests are grouped by table, every table's group runs through the
        shared batch body (:meth:`_execute_batch`) and all of it under one
        shared read acquisition — so a coalesced batch observes exactly one
        committed epoch, which every returned result records.  Results come
        back aligned with the input (mixed-table batches are fine; order
        within the batch is preserved).

        Cache-hit results carry the stored *read-only* int64 array as
        ``locations`` and no plan — hits must stay allocation-free to be
        worth taking; the misses of one plan group are views into the
        group's one location buffer.
        """
        requests = list(requests)
        results: list = [None] * len(requests)
        by_table: dict[str, list[int]] = {}
        # repro: ignore[REP004] -- requests are objects; grouping them by
        # table is the per-request boundary, each group runs as one batch
        for position, request in enumerate(requests):
            by_table.setdefault(request.table, []).append(position)
        with self.epochs.read() as epoch:
            for table_name, positions in by_table.items():
                self._execute_batch(
                    table_name, [requests[p].query for p in positions],
                    positions, results, epoch,
                )
        return results

    def _execute_batch(self, table_name: str,
                       queries: list[ConjunctiveQuery],
                       positions: Sequence[int], results: list,
                       epoch: int) -> None:
        """One table's batch: cache probe → plan_many → execute → fill.

        Must be called under the shared epoch side.  With a result cache
        enabled the queries are probed in one batch
        (:meth:`ResultCache.get_many`) against the ``data_epoch`` read
        under the held shared side (it cannot move while the side is
        held); only the misses are grouped by plan shape
        (:meth:`Planner.plan_many`) and run through the segmented batch
        executor — one candidate probe per access path, one
        pointer-resolution pass and one validation pass per predicate
        column over the *concatenated* candidates of each group — and
        their final arrays are installed in one batch fill afterwards.

        Args:
            queries: The table's conjunctions.
            positions: Slot of each query in ``results``.
            results: Output list, filled in place with one
                :class:`QueryResult` per query; ``plan`` is ``None`` for a
                cache hit.  Members of one plan group (and all hits of one
                probe pass) share one breakdown object: per-phase time for
                B queries is only meaningful in aggregate once the phases
                are batched.
            epoch: The write epoch the held shared side observed.
        """
        entry = self.catalog.table_entry(table_name)
        cache = self._result_cache
        miss_keys: list = []
        if cache is not None and cache.enabled:
            keys = [canonical_key(query) for query in queries]
            hits = cache.get_many(table_name, keys, entry.data_epoch)
            hit_count = sum(hit is not None for hit in hits)
            if hit_count == 0:
                # All-miss batch (cold cache, uniform traffic): reuse the
                # probe lists as-is — this keeps the pure miss path nearly
                # allocation-free on top of the uncached path.
                miss_keys = keys
            else:
                hit_breakdown = LookupBreakdown(lookups=hit_count)
                miss_queries, miss_positions = [], []
                for query, position, key, hit in zip(queries, positions,
                                                     keys, hits):
                    if hit is None:
                        miss_queries.append(query)
                        miss_positions.append(position)
                        miss_keys.append(key)
                        continue
                    count = int(hit.locations.size)
                    hit_breakdown.candidates += count
                    hit_breakdown.results += count
                    results[position] = QueryResult(
                        hit.locations, hit_breakdown, hit.used_index, None,
                        hit_count, epoch)
                if not miss_queries:
                    return
                queries, positions = miss_queries, miss_positions
        fills: list = []
        for group in self.planner.plan_many(table_name, queries):
            locations_per_query, breakdown = execute_plan_many(
                group, entry, self.pointer_scheme, entry.primary_index)
            used_index = group.plan.used_index
            group_size = len(group.indices)
            for member, locations in zip(group.indices.tolist(),
                                         locations_per_query):
                results[positions[member]] = QueryResult(
                    locations, breakdown, used_index, group.plan, group_size,
                    epoch)
                if miss_keys:
                    key = miss_keys[member]
                    if key is not None:
                        fills.append((key, locations, used_index))
        if fills:
            cache.put_many(table_name, fills, entry.data_epoch)

    def explain(self, request: QueryRequest) -> Plan:
        """Plan a request without executing it (the ``EXPLAIN`` entry point).

        When the request would currently be answered from the result cache,
        the returned plan is the plan-free ``cached`` marker instead of a
        freshly planned pipeline (``Plan.cached`` is ``True`` and
        ``describe()`` says so); the peek is non-destructive, so explain
        never perturbs hit/miss counters or the LRU order.
        """
        table_name, query = request.table, request.query
        cache = self._result_cache
        with self.epochs.read():
            if cache is not None and cache.enabled:
                key = canonical_key(query)
                if key is not None:
                    entry = self.catalog.table_entry(table_name)
                    hit = cache.peek(table_name, key, entry.data_epoch)
                    if hit is not None:
                        return Plan(table_name=table_name, query=query,
                                    merged=query.merged() or {}, cached=True,
                                    cached_used_index=hit.used_index)
            plan = self.planner.plan(table_name, query)
            if not plan.unsatisfiable:
                plan.cache_stats = self.planner.cache_info()
            return plan

    # ------------------------------------------------------- result cache

    @property
    def result_cache(self) -> ResultCache | None:
        """The attached result cache, or ``None`` when disabled."""
        return self._result_cache

    def result_cache_info(self) -> ResultCacheStats:
        """Result-cache counters; ``enabled=False`` when none is attached."""
        if self._result_cache is None:
            return ResultCacheStats(enabled=False)
        return self._result_cache.info()

    def result_cache_clear(self) -> None:
        """Drop all cached results (mirrors :meth:`planner_cache_clear`).

        A no-op without an attached cache.  Counters survive, so tests and
        benchmarks can clear between phases while keeping cumulative
        hit/miss accounting.
        """
        if self._result_cache is not None:
            self._result_cache.clear()

    def planner_cache_info(self) -> "dict[str, PlannerCacheStats]":
        """Per-table plan-cache counters (see :meth:`Planner.table_cache_info`)."""
        return self.planner.table_cache_info()

    def planner_cache_stats(self) -> PlannerCacheStats:
        """Cumulative plan-cache counters (see :meth:`Planner.cache_info`)."""
        return self.planner.cache_info()

    def planner_cache_clear(self) -> None:
        """Drop all cached plan templates (see :meth:`Planner.cache_clear`)."""
        self.planner.cache_clear()

    def query_with(self, table_name: str, index_name: str,
                   predicate: RangePredicate) -> QueryResult:
        """Execute a predicate through a specific named index.

        The one forced-index read: the planner is bypassed (no cost
        comparison, no plan or result caching), but the read is a one-path
        :class:`Plan` run by :func:`execute_plan`, so it shares pointer
        resolution, validation and the mechanism's false-positive feedback
        with every other read.  For mechanism-vs-mechanism comparisons;
        route ordinary reads through :meth:`execute` and let
        :meth:`explain` show which index the planner picks.
        """
        with self.epochs.read() as epoch:
            entry = self.catalog.table_entry(table_name)
            plan = self._forced_plan(entry, index_name, [predicate])
            locations, breakdown = execute_plan(
                plan, entry, self.pointer_scheme, entry.primary_index)
        return QueryResult(locations, breakdown, plan.used_index, plan, 1,
                           epoch)

    def query_with_many(self, table_name: str, index_name: str,
                        predicates: Sequence[RangePredicate],
                        ) -> list[QueryResult]:
        """Batch twin of :meth:`query_with`: one forced index, many ranges.

        The same checks and the same one-path plan, run as one
        :class:`~repro.engine.planner.PlanGroup` through
        :func:`execute_plan_many` under one read epoch — one segmented
        candidate probe for the whole batch, then the segmented tail.
        Results are aligned with ``predicates`` and share the batch's
        breakdown, which the mechanism's false-positive feedback books once.
        An empty batch returns ``[]``, as :meth:`execute_many` does.
        """
        predicates = list(predicates)
        if not predicates:
            return []
        with self.epochs.read() as epoch:
            entry = self.catalog.table_entry(table_name)
            plan = self._forced_plan(entry, index_name, predicates)
            group = PlanGroup(
                plan=plan, indices=np.arange(len(predicates), dtype=np.int64),
                bounds={predicates[0].column: KeyRanges.of(predicates)})
            locations_per_query, breakdown = execute_plan_many(
                group, entry, self.pointer_scheme, entry.primary_index)
        used_index, count = plan.used_index, len(predicates)
        return [QueryResult(locations, breakdown, used_index, plan, count,
                            epoch)
                for locations in locations_per_query]

    def _forced_plan(self, entry: TableEntry, index_name: str,
                     predicates: list[RangePredicate]) -> Plan:
        """The one-path plan of a forced read, checked before any probe.

        Raises :class:`CatalogError` for an unknown index and
        :class:`QueryError` for a predicate on another column.  The path is
        priced on the first predicate.
        """
        index_entry = entry.indexes.get(index_name)
        if index_entry is None:
            raise CatalogError(
                f"index {index_name!r} does not exist on table "
                f"{entry.name!r}"
            )
        for predicate in predicates:
            if index_entry.column != predicate.column:
                raise QueryError(
                    f"index {index_name!r} is on column "
                    f"{index_entry.column!r}, not {predicate.column!r}"
                )
        first = predicates[0]
        key_range = first.key_range
        path = MechanismPath(
            index_entry, key_range,
            self.catalog.column_stats(entry.name, first.column),
        )
        return Plan(table_name=entry.name, query=ConjunctiveQuery([first]),
                    merged={first.column: key_range}, paths=[path],
                    estimated_cost=path.estimated_cost())

    # ------------------------------------------------------------- accounting

    def memory_report(self, table_name: str | None = None) -> MemoryReport:
        """Memory breakdown: table, primary index, existing and new indexes."""
        report = MemoryReport()
        with self.epochs.read():
            for entry in self.catalog.tables():
                if table_name is not None and entry.name != table_name:
                    continue
                report.add("table", entry.table.memory_bytes())
                report.add("primary_index", entry.primary_index.memory_bytes())
                for index_entry in entry.indexes.values():
                    label = ("existing_indexes" if index_entry.is_preexisting
                             else "new_indexes")
                    report.add(label, index_entry.mechanism.memory_bytes())
        return report

    def table(self, table_name: str) -> Table:
        """Return the table object registered under ``table_name``."""
        with self.epochs.read():
            return self.catalog.table_entry(table_name).table

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless every index agrees with its table
        (for tests).

        Per table: the primary index holds exactly one ``key -> location``
        entry per live row; every complete secondary index (``BTREE``,
        which includes every host index) holds exactly the live rows'
        ``key -> tid`` pairs, NULL keys excepted; each of those ordered
        indexes is well formed (:meth:`OrderedIndex.check_invariants`:
        sorted runs, the distinct-key counts its point probes trust, dead
        marks that name entries, a record within the fold share); and every
        Hermit index and Correlation Map never misses
        (:meth:`HermitIndex.check_invariants`,
        :meth:`CorrelationMap.check_invariants`).
        """
        with self.epochs.read():
            for entry in self.catalog.tables():
                table = entry.table
                primary = table.schema.primary_key
                holds = [(primary, entry.primary_index, table.project(
                    [primary]))]
                for index_entry in entry.indexes.values():
                    mechanism = index_entry.mechanism
                    if isinstance(mechanism, (HermitIndex, CorrelationMap)):
                        mechanism.check_invariants()
                    else:
                        slots, keys = table.project([index_entry.column])
                        holds.append((index_entry.name, mechanism.index,
                                      (mechanism._tids_for_slots(slots),
                                       keys)))
                for name, index, (tids, keys) in holds:
                    try:
                        index.check_invariants()
                    except AssertionError as error:
                        raise AssertionError(
                            f"index {name!r} of table {entry.name!r}: "
                            f"{error}") from error
                    known = ~np.isnan(keys)
                    expected = sorted(zip(keys[known].tolist(),
                                          tids[known].tolist()))
                    if sorted(index.items()) != expected:
                        raise AssertionError(
                            f"index {name!r} of table {entry.name!r} does "
                            f"not hold exactly the live rows")


def _stored_rows(table: Table, slots: np.ndarray) -> dict[str, np.ndarray]:
    """The stored rows at ``slots``, column by column: one gather per
    column, what a delete or an update hands its mechanisms."""
    return {name: table.values(slots, name)
            for name in table.schema.column_names}
