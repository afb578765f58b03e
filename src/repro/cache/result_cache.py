"""The epoch-validated LRU result cache.

``ResultCache`` maps ``(table, canonicalised conjunctive query)`` to the
final sorted int64 location array a planned execution produced, so a
repeated hot query skips planning, path execution, pointer resolution and
validation entirely.  Three disciplines keep it honest:

* **Epoch invalidation.**  Every entry is stamped with the owning table's
  ``data_epoch`` (``Catalog.bump_data_epoch``, bumped once per committed
  ``insert_many`` / ``update`` / ``delete``) observed under the shared
  epoch side at execution time.  A probe compares the stamp against the
  table's *current* ``data_epoch`` — unequal means some write committed in
  between, so the entry is evicted on the spot and the probe misses.  The
  write path pays nothing beyond the epoch bump it already performs; the
  cache never has to be told about individual mutations.  Because
  ``data_epoch`` only moves under the exclusive side, a probe running
  under the shared side can never race a bump: equal stamps prove the
  cached array is exactly what re-executing the query would return.
  Unlike the plan cache's bounded-drift expiry (``_MAX_EPOCH_DRIFT`` in
  ``engine/planner.py``), result staleness is *exact* — one committed
  write epoch is enough to flip the stored rows, so drift tolerance is
  zero.

* **Canonical keys.**  Keys are built from
  :meth:`~repro.engine.query.ConjunctiveQuery.merged` — the per-column
  intersection the planner itself normalises on — with the columns sorted,
  so semantically equal predicate sets (duplicated conjuncts, permuted
  columns, overlapping same-column ranges) hit the same entry.
  Unsatisfiable conjunctions (``merged() is None``) bypass the cache;
  they are already O(1) to "execute".

* **Bounded memory.**  Entries live in one LRU order bounded by *both* an
  entry count and a cached-array byte budget
  (:class:`ResultCacheConfig`); inserting past either bound evicts from
  the cold end.  A single result larger than the whole byte budget is not
  cached at all, and a doorkeeper admission filter (on by default) defers
  each key's first fill so one-hit-wonder traffic never enters the
  budget at all.

Thread safety: probes and fills happen on the engine's *read* path, where
many reader threads run concurrently under the shared epoch side, so every
touch of cache state is probe-local — guarded by the cache's own mutex,
never by the epoch protocol.  ``repro.analysis`` rule REP007 enforces this
shape statically: any method of a lock-owning cache class that mutates
cache state must hold ``self._lock`` (or run under the epoch write side).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.query import ConjunctiveQuery

#: A canonical cache key: ``(column, low, high)`` for the (dominant)
#: single-column case, ``((column, low, high), ...)`` sorted by column
#: otherwise.  The shapes cannot collide — a nested key's first element
#: is a tuple, a flat key's is a column name — and keys are opaque to
#: the cache, so the flat form just saves one tuple per probe on the
#: serving hot path.
CacheKey = tuple

#: Flat per-entry bookkeeping cost charged against the byte budget on top
#: of the cached array itself (key tuple, entry object, OrderedDict slot).
ENTRY_OVERHEAD_BYTES = 128


def canonical_key(query: "ConjunctiveQuery") -> CacheKey | None:
    """Canonicalise a conjunctive query for cache lookup.

    Reuses the planner's per-column merge (``ConjunctiveQuery.merged``):
    duplicate and overlapping same-column predicates collapse to one
    ``KeyRange`` per column, and sorting the columns makes the key
    insensitive to conjunct order.  Returns ``None`` for unsatisfiable
    conjunctions, which the cache does not serve.
    """
    predicates = query.predicates
    if len(predicates) == 1:
        # Hot serving path: a single predicate is its own merge, so skip
        # the dict ``merged()`` would build and the ``KeyRange`` its
        # ``key_range`` property allocates (this runs once per probe).
        predicate = predicates[0]
        return (predicate.column, predicate.low, predicate.high)
    merged = query.merged()
    if merged is None:
        return None
    if len(merged) == 1:
        # Same flat shape as the fast path above, so a duplicated
        # single-column conjunct hits the same entry.
        column, key_range = next(iter(merged.items()))
        return (column, key_range.low, key_range.high)
    return tuple(sorted(
        (column, key_range.low, key_range.high)
        for column, key_range in merged.items()
    ))


@dataclass(frozen=True)
class ResultCacheConfig:
    """Memory budget of a :class:`ResultCache`.

    Attributes:
        max_entries: Upper bound on cached results (LRU-evicted past it).
        max_bytes: Upper bound on the summed cached-array bytes (plus a
            flat :data:`ENTRY_OVERHEAD_BYTES` per entry); results larger
            than the whole budget are never cached.
        admission: When ``True`` (the default), a result is only
            installed on its *second* fill attempt (a TinyLFU-style
            doorkeeper of recently seen keys, rotated in two bounded
            generations).  One-hit-wonder traffic then never pays the
            copy or squats in the byte budget — the uniform-mix
            overhead guard in ``bench/serving.py`` leans on this —
            while a key requested twice behaves as if admission were
            off from its second miss onward.
    """

    max_entries: int = 4096
    max_bytes: int = 32 << 20
    admission: bool = True

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {self.max_entries}")
        if self.max_bytes < 1:
            raise ConfigurationError(
                f"max_bytes must be >= 1, got {self.max_bytes}")


@dataclass(frozen=True)
class ResultCacheTableStats:
    """Per-table slice of the cache counters."""

    hits: int = 0
    misses: int = 0
    stale_evictions: int = 0
    entries: int = 0
    bytes: int = 0


@dataclass(frozen=True)
class ResultCacheStats:
    """Snapshot of the result-cache counters (the observability surface).

    Attributes:
        enabled: Whether probes are currently being served (``False`` both
            for a disabled cache and for a database built without one).
        hits: Probes served from a fresh entry.
        misses: Probes that found nothing servable (cold key or a stale
            entry evicted by the probe itself).
        stale_evictions: Entries dropped because their stamped epoch no
            longer matched the table's ``data_epoch`` (probe or sweep).
        lru_evictions: Entries dropped to stay inside the memory budget.
        admission_deferrals: Fills skipped by the doorkeeper (first
            sighting of a key; a second fill attempt installs it).
        entries: Entries currently cached.
        bytes: Budgeted bytes currently cached (arrays + flat overhead).
        per_table: The same counters split by table.
    """

    enabled: bool = False
    hits: int = 0
    misses: int = 0
    stale_evictions: int = 0
    lru_evictions: int = 0
    admission_deferrals: int = 0
    entries: int = 0
    bytes: int = 0
    per_table: "dict[str, ResultCacheTableStats]" = field(
        default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        """Hits over probes (0.0 when nothing was ever probed)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    @classmethod
    def merge(cls, stats: "list[ResultCacheStats]") -> "ResultCacheStats":
        """Sum counters across caches (the sharded composition)."""
        totals: dict[str, list[int]] = {}
        for item in stats:
            for table_name, table_stats in item.per_table.items():
                entry = totals.setdefault(table_name, [0, 0, 0, 0, 0])
                entry[0] += table_stats.hits
                entry[1] += table_stats.misses
                entry[2] += table_stats.stale_evictions
                entry[3] += table_stats.entries
                entry[4] += table_stats.bytes
        return cls(
            enabled=any(item.enabled for item in stats),
            hits=sum(item.hits for item in stats),
            misses=sum(item.misses for item in stats),
            stale_evictions=sum(item.stale_evictions for item in stats),
            lru_evictions=sum(item.lru_evictions for item in stats),
            admission_deferrals=sum(item.admission_deferrals
                                    for item in stats),
            entries=sum(item.entries for item in stats),
            bytes=sum(item.bytes for item in stats),
            per_table={
                table_name: ResultCacheTableStats(
                    hits=hits, misses=misses, stale_evictions=stale,
                    entries=entries, bytes=nbytes)
                for table_name, (hits, misses, stale, entries, nbytes)
                in sorted(totals.items())
            },
        )


class CacheEntry:
    """One cached result: the frozen location array plus its provenance."""

    __slots__ = ("locations", "data_epoch", "used_index", "nbytes")

    def __init__(self, locations: np.ndarray, data_epoch: int,
                 used_index: str | None) -> None:
        self.locations = locations
        self.data_epoch = data_epoch
        self.used_index = used_index
        self.nbytes = int(locations.nbytes) + ENTRY_OVERHEAD_BYTES


class ResultCache:
    """The epoch-validated LRU result cache (see the module docstring).

    Args:
        config: Memory budget; defaults to :class:`ResultCacheConfig`.

    Attributes:
        enabled: Probe switch.  The engine skips the cache entirely while
            this is ``False`` (entries are kept), which is how benchmarks
            race cache-on vs cache-off against one warmed engine.
    """

    def __init__(self, config: ResultCacheConfig | None = None) -> None:
        self.config = config if config is not None else ResultCacheConfig()
        self.enabled = True
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, CacheKey], CacheEntry]" = (
            OrderedDict())
        self._bytes = 0
        self._lru_evictions = 0
        self._admission_deferrals = 0
        # Doorkeeper generations: keys seen by one earlier fill attempt.
        self._seen: set = set()
        self._seen_old: set = set()
        # table -> [hits, misses, stale_evictions, entries, bytes]; the
        # hit, miss and stale-eviction totals are sums over the tables.
        self._per_table: dict[str, list[int]] = {}

    # ------------------------------------------------------------ probes

    def get_many(self, table_name: str, keys: "list[CacheKey | None]",
                 data_epoch: int) -> "list[CacheEntry | None]":
        """Probe a whole table batch under one lock acquisition.

        A fresh entry is a hit and moves to the warm end of the LRU order;
        an entry whose stamp differs from ``data_epoch`` — the table's
        current committed epoch, read under the shared epoch side — is
        evicted on the spot and counts as a miss: that comparison is the
        whole invalidation protocol.  Position-aligned with ``keys``;
        ``None`` keys (unsatisfiable conjunctions) pass through as ``None``
        without touching any counter.  One acquisition per batch is what
        keeps the probe overhead invisible next to the segmented batch
        executor it is short-circuiting; ``Database.execute`` probes a
        batch of one.
        """
        results: "list[CacheEntry | None]" = [None] * len(keys)
        with self._lock:
            counters = self._table_counters_locked(table_name)
            entries = self._entries
            if not entries:
                # Bulk miss: nothing cached at all (the steady state of
                # one-hit-wonder traffic held out by the doorkeeper), so
                # settle the counters without walking key by key.
                counters[1] += sum(key is not None for key in keys)
                return results
            hits = misses = 0
            for position, key in enumerate(keys):
                if key is None:
                    continue
                full_key = (table_name, key)
                entry = entries.get(full_key)
                if entry is not None and entry.data_epoch != data_epoch:
                    self._remove_locked(full_key, entry, stale=True)
                    entry = None
                if entry is None:
                    misses += 1
                    continue
                entries.move_to_end(full_key)
                hits += 1
                results[position] = entry
            counters[0] += hits
            counters[1] += misses
        return results

    def peek(self, table_name: str, key: CacheKey,
             data_epoch: int) -> CacheEntry | None:
        """Non-destructive probe: no counters, no LRU touch, no eviction.

        The ``explain`` hook — it reports whether a query *would* be
        served from cache without perturbing what a later ``execute``
        observes.
        """
        with self._lock:
            entry = self._entries.get((table_name, key))
            if entry is None or entry.data_epoch != data_epoch:
                return None
            return entry

    def put_many(self, table_name: str,
                 items: "list[tuple[CacheKey, np.ndarray, str | None]]",
                 data_epoch: int) -> None:
        """Store a table batch of ``(key, locations, used_index)`` fills,
        each a post-validation location array stamped with ``data_epoch``.

        The copies and freezes happen before the lock is taken; one
        acquisition then installs the whole batch and settles the budget
        once at the end.  ``Database.execute`` fills a batch of one.

        The batch's arrays are copied into *one* concatenated backing
        buffer, frozen once (``writeable = False``), and stored as
        read-only slice views: the engine hands the originals to the
        callers and cache hits hand the frozen views out directly, so
        neither side can corrupt the other.  A per-array copy plus
        ``flags.writeable`` toggle costs ~2 us each, which is more than
        the rest of the miss-path overhead combined.  The trade-off: the
        buffer stays reachable until every entry cut from it is evicted,
        so a lone survivor can pin its batch's bytes beyond what the
        budget accounts.  Batches are request coalescing sized (hundreds
        of entries, not millions), which bounds the overshoot to a few
        batch buffers.

        Under admission (see :class:`ResultCacheConfig`) the doorkeeper
        filters the batch *before* any array is copied: a key's first
        sighting registers it in the young generation and defers, a
        sighting found in either generation admits.  When the young
        generation outgrows ``max_entries`` it becomes the old one (the
        previous old generation is forgotten), which bounds the doorkeeper
        to two generations of popularity memory.  The generations hold key
        *hashes*: ints are not GC-tracked, so a run of first sightings
        (uniform traffic) retains no tuples that would drive garbage
        collections on the miss path, and costs two set operations per
        item and nothing else.  A collision only admits a key one sighting
        early.
        """
        max_bytes = self.config.max_bytes
        max_entries = self.config.max_entries
        with self._lock:
            if not self.config.admission:
                admitted = items
            else:
                admitted = []
                deferred = 0
                seen = self._seen
                seen_old = self._seen_old
                for item in items:
                    sighting = hash((table_name, item[0]))
                    if sighting in seen:
                        seen.discard(sighting)
                        admitted.append(item)
                    elif sighting in seen_old:
                        seen_old.discard(sighting)
                        admitted.append(item)
                    else:
                        seen.add(sighting)
                        deferred += 1
                        if len(seen) > max_entries:
                            self._seen_old = seen_old = seen
                            self._seen = seen = set()
                self._admission_deferrals += deferred
        arrays: "list[np.ndarray]" = []
        metas: "list[tuple[tuple, str | None]]" = []
        for key, locations, used_index in admitted:
            array = np.asarray(locations, dtype=np.int64)
            if int(array.nbytes) + ENTRY_OVERHEAD_BYTES <= max_bytes:
                arrays.append(array)
                metas.append(((table_name, key), used_index))
        if not arrays:
            return
        buffer = np.concatenate(arrays)
        buffer.flags.writeable = False
        prepared: "list[tuple[tuple, CacheEntry]]" = []
        start = 0
        for (full_key, used_index), array in zip(metas, arrays):
            end = start + array.size
            prepared.append((full_key, CacheEntry(buffer[start:end],
                                                  data_epoch, used_index)))
            start = end
        with self._lock:
            entries = self._entries
            counters = self._table_counters_locked(table_name)
            for full_key, entry in prepared:
                previous = entries.pop(full_key, None)
                if previous is not None:
                    self._account_removal_locked(table_name, previous)
                entries[full_key] = entry
                self._bytes += entry.nbytes
                counters[3] += 1
                counters[4] += entry.nbytes
            self._evict_over_budget_locked()

    # ----------------------------------------------------- maintenance

    def sweep(self, current_epochs: "dict[str, int]") -> int:
        """Drop every stale entry in one pass; returns how many died.

        The checkpoint hook: a snapshot already walks all engine state
        under the shared side, so piggybacking a full-cache staleness scan
        there keeps long-idle stale entries from squatting in the byte
        budget until a probe happens to land on them.  Tables missing
        from ``current_epochs`` (dropped tables) are swept too.
        """
        with self._lock:
            stale = [
                (full_key, entry) for full_key, entry in self._entries.items()
                if entry.data_epoch != current_epochs.get(full_key[0])
            ]
            for full_key, entry in stale:
                del self._entries[full_key]
                self._account_removal_locked(full_key[0], entry)
                self._table_counters_locked(full_key[0])[2] += 1
            return len(stale)

    def clear(self) -> None:
        """Drop every entry and the doorkeeper's memory of seen keys.

        Counters survive, like ``Planner.cache_clear``.
        """
        with self._lock:
            self._entries.clear()
            self._seen.clear()
            self._seen_old.clear()
            self._bytes = 0
            for counters in self._per_table.values():
                counters[3] = 0
                counters[4] = 0

    def info(self) -> ResultCacheStats:
        """Consistent snapshot of all counters."""
        with self._lock:
            per_table = self._per_table.values()
            return ResultCacheStats(
                enabled=self.enabled,
                hits=sum(counters[0] for counters in per_table),
                misses=sum(counters[1] for counters in per_table),
                stale_evictions=sum(counters[2] for counters in per_table),
                lru_evictions=self._lru_evictions,
                admission_deferrals=self._admission_deferrals,
                entries=len(self._entries), bytes=self._bytes,
                per_table={
                    table_name: ResultCacheTableStats(
                        hits=counters[0], misses=counters[1],
                        stale_evictions=counters[2], entries=counters[3],
                        bytes=counters[4])
                    for table_name, counters in sorted(self._per_table.items())
                },
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------- locked helpers
    # (the ``_locked`` suffix is REP007's contract: only called while
    # holding self._lock)

    def _table_counters_locked(self, table_name: str) -> list:
        counters = self._per_table.get(table_name)
        if counters is None:
            counters = self._per_table[table_name] = [0, 0, 0, 0, 0]
        return counters

    def _account_removal_locked(self, table_name: str,
                                entry: CacheEntry) -> None:
        self._bytes -= entry.nbytes
        counters = self._table_counters_locked(table_name)
        counters[3] -= 1
        counters[4] -= entry.nbytes

    def _remove_locked(self, full_key: tuple, entry: CacheEntry,
                       stale: bool) -> None:
        del self._entries[full_key]
        self._account_removal_locked(full_key[0], entry)
        if stale:
            self._table_counters_locked(full_key[0])[2] += 1
        else:
            self._lru_evictions += 1

    def _evict_over_budget_locked(self) -> None:
        while self._entries and (
                len(self._entries) > self.config.max_entries
                or self._bytes > self.config.max_bytes):
            full_key, entry = next(iter(self._entries.items()))
            self._remove_locked(full_key, entry, stale=False)
