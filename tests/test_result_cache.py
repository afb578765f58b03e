"""The epoch-validated result cache (``pytest -m serving``).

Four layers, bottom up:

* **Canonical keys** — permuted, duplicated and overlapping conjuncts
  collapse to the same key; unsatisfiable conjunctions bypass.
* **ResultCache units** — doorkeeper admission, exact-epoch staleness,
  LRU and byte-budget eviction, batch probe/fill, clear/sweep/peek, and
  the stats surface (including the sharded ``merge``).
* **Engine wiring** — probes, fills, hits without plans, invalidation by
  DML and checkpoints, the sharded composition.  That cached answers stay
  exact under any interleaving of reads and writes, for every mechanism
  and both pointer schemes, is checked against the model by the state
  machine in ``test_engine_oracle`` (its ``cached`` cells).
* **Concurrency** — the torn-read stress shape from ``test_serving``:
  a writer commits marker rows in all-or-nothing batches while cached
  readers hammer the same table; every observed count must sit on a
  batch boundary (a stale cached array would break that instantly).
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro.cache.result_cache import (
    ResultCache,
    ResultCacheConfig,
    ResultCacheStats,
    canonical_key,
)
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.planner import PlannerCacheStats
from repro.engine.query import (
    ConjunctiveQuery,
    QueryRequest,
    RangePredicate,
    conjunction,
)
from repro.errors import ConfigurationError
from repro.serving import Server
from repro.sharding import ShardedDatabase
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

from reference import assert_locations

pytestmark = pytest.mark.serving

METHODS = ("hermit", "btree", "cm")
ROWS = 400
TARGET_DOMAIN = (0.0, 1_000.0)


def build_database(scheme: PointerScheme = PointerScheme.PHYSICAL,
                   method: str = "btree", rows: int = ROWS,
                   cache_config: ResultCacheConfig | None = None,
                   seed: int = 11) -> Database:
    """(pk, host, target, payload) with a target index, cache enabled."""
    rng = np.random.default_rng(seed)
    low, high = TARGET_DOMAIN
    target = rng.uniform(low, high, size=rows)
    database = Database(
        pointer_scheme=scheme,
        result_cache=cache_config or ResultCacheConfig())
    database.create_table(numeric_schema(
        "t", ["pk", "host", "target", "payload"], primary_key="pk"))
    database.insert_many("t", {
        "pk": np.arange(rows, dtype=np.float64),
        "host": 2.0 * target + 10.0,
        "target": target,
        "payload": rng.uniform(0.0, 1.0, size=rows),
    })
    database.create_index("idx_host", "t", "host", method=IndexMethod.BTREE)
    if method == "hermit":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.HERMIT, host_column="host")
    elif method == "btree":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.BTREE)
    elif method == "cm":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.CORRELATION_MAP,
                              host_column="host",
                              cm_target_bucket_width=25.0,
                              cm_host_bucket_width=50.0)
    else:
        raise AssertionError(method)
    return database


def locations_equal(result_a, result_b) -> bool:
    """Hits carry the cache's read-only arrays, misses fresh ones — both
    sorted unique int64; compare values."""
    for result in (result_a, result_b):
        assert_locations(result, result.locations)
    return np.array_equal(result_a.locations, result_b.locations)


class TestCanonicalKey:
    def test_single_predicate_fast_path_matches_merged_path(self):
        query = conjunction(RangePredicate("target", 2.0, 9.0))
        duplicated = conjunction(RangePredicate("target", 2.0, 9.0),
                                 RangePredicate("target", 2.0, 9.0))
        assert canonical_key(query) == canonical_key(duplicated)
        assert canonical_key(query) == ("target", 2.0, 9.0)

    def test_permuted_conjuncts_share_a_key(self):
        a = conjunction(RangePredicate("host", 1.0, 5.0),
                        RangePredicate("target", 2.0, 9.0))
        b = conjunction(RangePredicate("target", 2.0, 9.0),
                        RangePredicate("host", 1.0, 5.0))
        assert canonical_key(a) == canonical_key(b)

    def test_overlapping_same_column_predicates_intersect(self):
        overlapping = conjunction(RangePredicate("target", 0.0, 10.0),
                                  RangePredicate("target", 5.0, 20.0))
        merged = conjunction(RangePredicate("target", 5.0, 10.0))
        assert canonical_key(overlapping) == canonical_key(merged)

    def test_unsatisfiable_returns_none(self):
        disjoint = conjunction(RangePredicate("target", 0.0, 1.0),
                               RangePredicate("target", 5.0, 6.0))
        assert canonical_key(disjoint) is None


def fill(cache: ResultCache, table: str, key, locations, epoch: int,
         used_index: str | None) -> None:
    """One fill: a ``put_many`` batch of one, as ``Database.execute``
    makes."""
    cache.put_many(table, [(key, locations, used_index)], epoch)


def probe(cache: ResultCache, table: str, key, epoch: int):
    """One probe: a ``get_many`` batch of one, as ``Database.execute``
    makes."""
    return cache.get_many(table, [key], epoch)[0]


class TestResultCacheUnits:
    KEY = (("target", 1.0, 2.0),)

    def put_twice(self, cache: ResultCache, key=None, table="t",
                  locations=(1, 2, 3), epoch=0, used_index="idx"):
        """Install through the doorkeeper (first fill only registers)."""
        array = np.asarray(locations, dtype=np.int64)
        fill(cache, table, key or self.KEY, array, epoch, used_index)
        fill(cache, table, key or self.KEY, array, epoch, used_index)

    def test_admission_defers_first_fill(self):
        cache = ResultCache()
        array = np.array([1, 2], dtype=np.int64)
        fill(cache, "t", self.KEY, array, 0, None)
        assert probe(cache, "t", self.KEY, 0) is None
        assert cache.info().admission_deferrals == 1
        fill(cache, "t", self.KEY, array, 0, None)
        entry = probe(cache, "t", self.KEY, 0)
        assert entry is not None
        assert np.array_equal(entry.locations, array)
        assert not entry.locations.flags.writeable

    def test_admission_off_installs_immediately(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        fill(cache, "t", self.KEY, np.array([7], dtype=np.int64), 0, None)
        assert probe(cache, "t", self.KEY, 0) is not None
        assert cache.info().admission_deferrals == 0

    def test_stale_entry_evicted_on_probe(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        fill(cache, "t", self.KEY, np.array([1], dtype=np.int64), 3, None)
        assert probe(cache, "t", self.KEY, 4) is None
        info = cache.info()
        assert info.stale_evictions == 1
        assert info.entries == 0
        # The stale probe counts as a miss, not a hit.
        assert info.misses == 1 and info.hits == 0

    def test_lru_eviction_by_entry_count(self):
        cache = ResultCache(ResultCacheConfig(max_entries=2,
                                              admission=False))
        for value in range(3):
            fill(cache, "t", (("c", value, value),),
                      np.array([value], dtype=np.int64), 0, None)
        assert len(cache) == 2
        assert probe(cache, "t", (("c", 0, 0),), 0) is None  # cold end died
        assert probe(cache, "t", (("c", 2, 2),), 0) is not None
        assert cache.info().lru_evictions == 1

    def test_lru_order_follows_hits(self):
        cache = ResultCache(ResultCacheConfig(max_entries=2,
                                              admission=False))
        fill(cache, "t", (("c", 0, 0),), np.array([0]), 0, None)
        fill(cache, "t", (("c", 1, 1),), np.array([1]), 0, None)
        assert probe(cache, "t", (("c", 0, 0),), 0) is not None  # warm 0
        fill(cache, "t", (("c", 2, 2),), np.array([2]), 0, None)
        assert probe(cache, "t", (("c", 1, 1),), 0) is None  # 1 was coldest
        assert probe(cache, "t", (("c", 0, 0),), 0) is not None

    def test_byte_budget_eviction(self):
        config = ResultCacheConfig(max_bytes=2 * (800 + 128),
                                   admission=False)
        cache = ResultCache(config)
        for value in range(3):
            fill(cache, "t", (("c", value, value),),
                      np.zeros(100, dtype=np.int64), 0, None)
        assert len(cache) == 2
        assert cache.info().bytes <= config.max_bytes

    def test_oversized_result_never_cached(self):
        cache = ResultCache(ResultCacheConfig(max_bytes=256,
                                              admission=False))
        fill(cache, "t", self.KEY, np.zeros(1000, dtype=np.int64), 0, None)
        assert len(cache) == 0

    def test_peek_is_non_destructive(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        fill(cache, "t", self.KEY, np.array([1], dtype=np.int64), 3, None)
        assert cache.peek("t", self.KEY, 3) is not None
        stale = cache.peek("t", self.KEY, 4)
        assert stale is None
        info = cache.info()
        assert info.hits == 0 and info.misses == 0
        assert info.entries == 1  # even the stale peek evicted nothing

    def test_get_many_mixes_hits_misses_and_bypasses(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        fill(cache, "t", (("c", 1, 1),), np.array([1], dtype=np.int64), 0, "i")
        keys = [(("c", 1, 1),), (("c", 2, 2),), None]
        entries = cache.get_many("t", keys, 0)
        assert entries[0] is not None and entries[1] is None
        assert entries[2] is None
        info = cache.info()
        assert info.hits == 1 and info.misses == 1  # None key uncounted

    def test_put_many_installs_after_doorkeeper(self):
        cache = ResultCache()
        items = [((("c", value, value),),
                  np.array([value], dtype=np.int64), None)
                 for value in range(4)]
        cache.put_many("t", items, 0)
        assert len(cache) == 0  # all first sightings
        cache.put_many("t", items, 0)
        assert len(cache) == 4
        entry = probe(cache, "t", (("c", 2, 2),), 0)
        assert np.array_equal(entry.locations, [2])
        assert not entry.locations.flags.writeable

    def test_doorkeeper_retains_no_gc_tracked_objects(self):
        """A run of first sightings leaves nothing for the collector: the
        doorkeeper keeps key hashes, so uniform traffic's miss path does not
        drive garbage collections that the uncached path never pays."""
        cache = ResultCache()
        array = np.array([1], dtype=np.int64)

        def first_sightings(start: int) -> None:
            cache.put_many("t", [(("c", float(value), float(value) + 1.0),
                                  array, None)
                                 for value in range(start, start + 1000)], 0)

        first_sightings(0)
        gc.disable()
        try:
            before = gc.get_count()[0]
            first_sightings(1000)
            retained = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert cache.info().admission_deferrals == 2000
        assert retained < 100, retained

    # put_many's admission loop is the only admission code: a fill from
    # Database.execute is a batch of one, so every doorkeeper rule is
    # checked here on batches.

    @staticmethod
    def key(value) -> tuple:
        return (("c", value, value),)

    def test_a_key_sighted_twice_in_one_batch_is_admitted(self):
        cache = ResultCache()
        cache.put_many("t", [(self.key(1), np.array([1]), None),
                             (self.key(1), np.array([1, 2]), "idx")], 0)
        entry = probe(cache, "t", self.key(1), 0)
        assert np.array_equal(entry.locations, [1, 2])
        assert entry.used_index == "idx"
        assert cache.info().admission_deferrals == 1

    def test_a_mixed_batch_defers_only_its_first_sightings(self):
        cache = ResultCache()
        fill(cache, "t", self.key(0), np.array([0]), 0, None)
        fill(cache, "t", self.key(1), np.array([1]), 0, None)
        cache.put_many("t", [(self.key(value), np.array([value]), None)
                             for value in range(4)], 0)
        assert [probe(cache, "t", self.key(value), 0) is not None
                for value in range(4)] == [True, True, False, False]
        assert cache.info().admission_deferrals == 4

    def test_doorkeeper_forgets_after_two_generations(self):
        """The young generation rolls over once it holds more than
        ``max_entries`` keys; a key in the old generation still admits, one
        two rollovers back is a first sighting again."""
        cache = ResultCache(ResultCacheConfig(max_entries=2))
        array = np.array([1])
        cache.put_many("t", [(self.key(value), array, None)
                             for value in range(3)], 0)   # rolls over
        fill(cache, "t", self.key(0), array, 0, None)      # old: admits
        assert probe(cache, "t", self.key(0), 0) is not None
        cache.put_many("t", [(self.key(value), array, None)
                             for value in range(10, 13)], 0)  # rolls over
        fill(cache, "t", self.key(1), array, 0, None)      # forgotten
        assert probe(cache, "t", self.key(1), 0) is None
        assert cache.info().admission_deferrals == 7

    def test_sightings_are_per_table(self):
        cache = ResultCache()
        fill(cache, "a", self.KEY, np.array([1]), 0, None)
        fill(cache, "b", self.KEY, np.array([1]), 0, None)
        assert len(cache) == 0
        fill(cache, "b", self.KEY, np.array([1]), 0, None)
        assert probe(cache, "a", self.KEY, 0) is None
        assert probe(cache, "b", self.KEY, 0) is not None

    def test_an_oversized_item_does_not_stop_the_rest_of_its_batch(self):
        cache = ResultCache(ResultCacheConfig(max_bytes=1024,
                                              admission=False))
        cache.put_many("t", [(self.key(0), np.zeros(1000), None),
                             (self.key(1), np.array([1]), None)], 0)
        assert probe(cache, "t", self.key(0), 0) is None
        assert np.array_equal(probe(cache, "t", self.key(1), 0).locations,
                              [1])
        assert cache.info().lru_evictions == 0

    def test_a_refill_replaces_the_entry_and_its_bytes(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        fill(cache, "t", self.KEY, np.arange(3), 0, "old")
        fill(cache, "t", self.KEY, np.arange(5), 1, "new")
        info = cache.info()
        assert info.entries == 1 and info.per_table["t"].entries == 1
        assert info.bytes == info.per_table["t"].bytes == 5 * 8 + 128
        entry = probe(cache, "t", self.KEY, 1)
        assert np.array_equal(entry.locations, np.arange(5))
        assert entry.used_index == "new"

    def test_a_batch_settles_the_budget_once_at_its_end(self):
        """A batch larger than ``max_entries`` installs whole, then the
        coldest entries — the batch's own first items — are evicted."""
        cache = ResultCache(ResultCacheConfig(max_entries=2,
                                              admission=False))
        cache.put_many("t", [(self.key(value), np.array([value]), None)
                             for value in range(5)], 0)
        assert [probe(cache, "t", self.key(value), 0) is not None
                for value in range(5)] == [False, False, False, True, True]
        assert cache.info().lru_evictions == 3

    def test_a_fill_copies_the_callers_array(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        locations = np.array([1, 2, 3], dtype=np.int64)
        fill(cache, "t", self.KEY, locations, 0, None)
        locations[:] = 0
        assert locations.flags.writeable
        assert np.array_equal(probe(cache, "t", self.KEY, 0).locations,
                              [1, 2, 3])

    def test_an_empty_batch_changes_nothing(self):
        cache = ResultCache()
        cache.put_many("t", [], 0)
        info = cache.info()
        assert (len(cache), info.admission_deferrals, info.per_table) == (
            0, 0, {})

    def test_clear_drops_entries_and_doorkeeper_keeps_counters(self):
        cache = ResultCache()
        self.put_twice(cache)
        assert probe(cache, "t", self.KEY, 0) is not None
        cache.clear()
        assert len(cache) == 0
        info = cache.info()
        assert info.hits == 1  # counters survive
        # Doorkeeper memory is gone too: one fill defers again.
        fill(cache, "t", self.KEY, np.array([1], dtype=np.int64), 0, None)
        assert probe(cache, "t", self.KEY, 0) is None

    def test_sweep_drops_stale_and_dropped_tables(self):
        cache = ResultCache(ResultCacheConfig(admission=False))
        fill(cache, "a", self.KEY, np.array([1], dtype=np.int64), 3, None)
        fill(cache, "b", self.KEY, np.array([2], dtype=np.int64), 5, None)
        assert cache.sweep({"a": 3}) == 1  # b's table vanished
        assert cache.sweep({"a": 4}) == 1  # a went stale
        assert len(cache) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ResultCacheConfig(max_entries=0)
        with pytest.raises(ConfigurationError):
            ResultCacheConfig(max_bytes=0)

    def test_stats_merge_sums_counters_and_tables(self):
        cache_a = ResultCache(ResultCacheConfig(admission=False))
        cache_b = ResultCache(ResultCacheConfig(admission=False))
        fill(cache_a, "t", self.KEY, np.array([1], dtype=np.int64), 0, None)
        fill(cache_b, "t", self.KEY, np.array([2], dtype=np.int64), 0, None)
        probe(cache_a, "t", self.KEY, 0)
        probe(cache_b, "t", (("c", 9, 9),), 0)
        merged = ResultCacheStats.merge([cache_a.info(), cache_b.info()])
        assert merged.hits == 1 and merged.misses == 1
        assert merged.entries == 2
        assert merged.per_table["t"].entries == 2
        assert merged.hit_ratio == 0.5


class TestEngineWiring:
    def repeat_until_hit(self, database: Database, request: QueryRequest):
        """Issue a request enough times to pass the doorkeeper and hit."""
        database.execute(request)  # registers with the doorkeeper
        database.execute(request)  # installs
        return database.execute(request)  # hits

    def test_execute_hit_matches_uncached_and_marks_explain(self):
        database = build_database()
        request = QueryRequest.range("t", "target", 100.0, 300.0)
        uncached = database.execute(request)
        hit = self.repeat_until_hit(database, request)
        assert locations_equal(uncached, hit)
        assert hit.used_index == uncached.used_index
        plan = database.explain(QueryRequest.of("t", ConjunctiveQuery(
            (RangePredicate("target", 100.0, 300.0),))))
        assert plan.cached
        assert plan.used_index == uncached.used_index
        assert "result cache hit" in plan.describe()

    @pytest.mark.parametrize("method", METHODS)
    def test_a_hit_looks_the_same_from_execute_and_execute_many(self, method):
        """No plan, the entry's index name, the stored read-only array —
        the ``cached`` marker plan is ``explain``'s business alone."""
        database = build_database(method=method)
        request = QueryRequest.range("t", "target", 100.0, 300.0)
        miss = database.execute(request)
        assert miss.plan is not None and miss.locations.flags.writeable
        single = self.repeat_until_hit(database, request)
        batch = database.execute_many([request])[0]
        for hit in (single, batch):
            assert hit.plan is None
            assert hit.used_index == miss.used_index
            assert not hit.locations.flags.writeable
            assert_locations(hit, miss.locations)
            assert (hit.breakdown.candidates == hit.breakdown.results
                    == len(hit))
        assert single.locations is batch.locations     # the stored array
        assert single.group_size == batch.group_size == 1
        assert single.epoch == batch.epoch
        assert database.explain(request).cached

    def test_explain_does_not_perturb_cache_state(self):
        database = build_database()
        request = QueryRequest.range("t", "target", 100.0, 300.0)
        self.repeat_until_hit(database, request)
        before = database.result_cache_info()
        database.explain(QueryRequest.of("t", ConjunctiveQuery(
            (RangePredicate("target", 100.0, 300.0),))))
        after = database.result_cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_dml_invalidates_between_executions(self):
        database = build_database()
        request = QueryRequest.range("t", "target", 0.0, 1_000.0)
        hit = self.repeat_until_hit(database, request)
        count = len(hit.locations)
        database.insert_many("t", {
            "pk": np.array([10_000.0]), "host": np.array([1.0]),
            "target": np.array([500.0]), "payload": np.array([0.0]),
        })
        fresh = database.execute(request)
        assert len(fresh.locations) == count + 1
        assert database.result_cache_info().stale_evictions >= 1

    def test_execute_many_splices_hits_in_input_order(self):
        database = build_database()
        requests = [QueryRequest.range("t", "target", 100.0 * i,
                                       100.0 * i + 150.0)
                    for i in range(6)]
        baseline = database.execute_many(requests)
        database.execute_many(requests)  # install (doorkeeper passed)
        # Mix hits with never-seen requests in one batch.
        mixed = requests[:3] + [QueryRequest.point("t", "target", -1.0)] + \
            requests[3:]
        mixed_baseline = baseline[:3] + \
            [database.execute(QueryRequest.point("t", "target", -1.0))] + \
            baseline[3:]
        results = database.execute_many(mixed)
        assert len(results) == len(mixed)
        for got, expected in zip(results, mixed_baseline):
            assert locations_equal(got, expected)
        assert database.result_cache_info().hits >= 6

    @pytest.mark.parametrize("method", METHODS)
    def test_conjunctive_batches_probe_and_fill(self, method):
        """Conjunctive batches go through the cache like any other: the
        second repeat hits, and under interleaved ``insert_many`` every
        batch equals the cache-off run (no stale array survives a write).
        """
        database = build_database(method=method)
        uncached = build_database(method=method)
        uncached.result_cache.enabled = False
        requests = [
            QueryRequest.of("t", [
                RangePredicate("target", 100.0 * i, 100.0 * i + 150.0),
                RangePredicate("host", 0.0, 1_500.0)])
            for i in range(4)
        ]

        def batches_agree() -> list:
            cached_batch = database.execute_many(requests)
            plain_batch = uncached.execute_many(requests)
            for got, expected in zip(cached_batch, plain_batch):
                assert locations_equal(got, expected)
            return cached_batch

        batches_agree()                      # registers with the doorkeeper
        batches_agree()                      # installs
        before = database.result_cache_info()
        hit_batch = batches_agree()          # hits
        after = database.result_cache_info()
        assert after.hits - before.hits == len(requests)
        assert all(result.plan is None for result in hit_batch)
        assert all(database.explain(request).cached for request in requests)
        assert all(result.group_size == len(requests) for result in hit_batch)

        for round_number in range(3):
            for db in (database, uncached):
                db.insert_many("t", {
                    "pk": np.array([20_000.0 + round_number]),
                    "host": np.array([2.0 * 120.0 + 10.0]),
                    "target": np.array([120.0 + round_number]),
                    "payload": np.array([0.0]),
                })
            fresh = batches_agree()
            assert all(result.plan is not None for result in fresh)
        assert database.result_cache_info().stale_evictions >= len(requests)

    def test_result_cache_clear_and_disabled_database(self):
        database = build_database()
        request = QueryRequest.range("t", "target", 100.0, 300.0)
        self.repeat_until_hit(database, request)
        assert database.result_cache_info().entries >= 1
        database.result_cache_clear()
        assert database.result_cache_info().entries == 0

        plain = Database()
        info = plain.result_cache_info()
        assert info.enabled is False and info.entries == 0
        plain.result_cache_clear()  # no-op, must not raise

    def test_server_stats_carry_cache_counters(self):
        database = build_database()
        request = QueryRequest.range("t", "target", 100.0, 300.0)
        server = Server(database)
        try:
            for _ in range(3):
                server.submit(request).result(timeout=5.0)
            stats = server.stats()
            assert stats.result_cache.enabled
            assert stats.result_cache.hits >= 1
        finally:
            server.close()

    def test_checkpoint_sweeps_stale_entries(self, tmp_path):
        from repro.durability.config import DurabilityConfig

        database = Database(
            durability=DurabilityConfig(directory=tmp_path),
            result_cache=ResultCacheConfig())
        database.create_table(numeric_schema(
            "t", ["pk", "target"], primary_key="pk"))
        database.insert_many("t", {
            "pk": np.arange(10, dtype=np.float64),
            "target": np.arange(10, dtype=np.float64),
        })
        database.create_table(numeric_schema(
            "u", ["pk", "target"], primary_key="pk"))
        database.insert_many("u", {
            "pk": np.arange(10, dtype=np.float64),
            "target": np.arange(10, dtype=np.float64),
        })
        request = QueryRequest.range("t", "target", 0.0, 5.0)
        database.execute(request)
        database.execute(request)
        assert database.result_cache_info().entries == 1
        # DML on *another* table leaves t's entry fresh; DML on t makes
        # it sweepable without any probe touching it.
        database.insert_many("t", {
            "pk": np.array([100.0]), "target": np.array([100.0]),
        })
        database.checkpoint()
        info = database.result_cache_info()
        assert info.entries == 0
        assert info.stale_evictions == 1

    def test_totals_are_the_sums_of_the_per_table_counters(self):
        """Planner and result cache count each event once, per table; the
        totals are the sums — across two tables, through a stale eviction
        and a ``cache_clear`` (the planner resets, the cache keeps)."""
        database = Database(result_cache=ResultCacheConfig(admission=False))
        for name in ("a", "b"):
            database.create_table(numeric_schema(name, ["pk", "x"],
                                                 primary_key="pk"))
            database.insert_many(name, {"pk": np.arange(50.0),
                                        "x": np.arange(50.0)})
            database.create_index(f"idx_{name}", name, "x")

        def requests(name):
            return [QueryRequest.range(name, "x", low, low + 5.0)
                    for low in (0.0, 10.0, 20.0)]

        def counted():
            planner = database.planner_cache_stats()
            planner_tables = database.planner_cache_info()
            for field in ("hits", "misses", "replays"):
                assert getattr(planner, field) == sum(
                    getattr(stats, field) for stats in planner_tables.values())
            cache = database.result_cache_info()
            for field in ("hits", "misses", "stale_evictions"):
                assert getattr(cache, field) == sum(
                    getattr(stats, field) for stats in cache.per_table.values())
            return planner_tables, cache

        for name in ("a", "b", "a"):
            database.execute_many(requests(name))
            database.execute(requests(name)[0])
        planner_tables, cache = counted()
        assert set(planner_tables) == set(cache.per_table) == {"a", "b"}
        assert all(stats.misses and stats.replays
                   for stats in planner_tables.values())
        assert cache.per_table["a"].hits == 5
        assert cache.per_table["b"].hits == 1
        assert cache.misses == 6

        database.insert_many("a", {"pk": [100.0], "x": [1.0]})
        database.execute(requests("a")[0])
        _, cache = counted()
        assert cache.per_table["a"].stale_evictions == 1
        assert cache.per_table["b"].stale_evictions == 0

        database.planner_cache_clear()
        database.result_cache_clear()
        planner_tables, cleared = counted()
        assert planner_tables == {}
        assert database.planner_cache_stats() == PlannerCacheStats()
        assert (cleared.hits, cleared.misses, cleared.stale_evictions) == (
            cache.hits, cache.misses, cache.stale_evictions)
        assert cleared.entries == 0


class TestShardedComposition:
    def build(self, num_shards: int = 2) -> ShardedDatabase:
        database = ShardedDatabase(
            num_shards=num_shards, mode="inline",
            result_cache=ResultCacheConfig())
        database.create_table(
            numeric_schema("t", ["pk", "target"], primary_key="pk"),
            boundaries=[50.0])
        database.insert_many("t", {
            "pk": np.arange(100, dtype=np.float64),
            "target": np.arange(100, dtype=np.float64),
        })
        return database

    def test_merged_stats_and_clear_across_shards(self):
        database = self.build()
        requests = [QueryRequest.range("t", "target", 10.0, 60.0)] * 3
        for _ in range(3):
            database.execute_many(requests)
        info = database.result_cache_info()
        assert info.enabled
        assert info.hits >= 1
        assert info.entries >= 1
        database.result_cache_clear()
        assert database.result_cache_info().entries == 0


class TestNoTornCachedReads:
    def test_writer_batches_never_half_visible_to_cached_readers(self):
        """The ``test_serving`` stress shape, pointed at the cache.

        A writer inserts marker rows in all-or-nothing batches; cached
        readers repeat the same marker query (maximal hit pressure).
        Every count observed — from the cache or not — must be a
        multiple of the batch size: a cached array surviving its epoch
        would surface as an off-boundary count.
        """
        database = build_database(rows=500)
        batch = 8
        marker = 5_000.0
        request = QueryRequest.point("t", "target", marker)
        failures: list[str] = []
        stop = threading.Event()

        def writer():
            pk = 50_000.0
            for _ in range(30):
                database.insert_many("t", {
                    "pk": pk + np.arange(batch, dtype=np.float64),
                    "host": np.full(batch, marker * 2.0),
                    "target": np.full(batch, marker),
                    "payload": np.zeros(batch),
                })
                pk += batch
                # Every write overwrites a state the readers have cached
                # (the 30 writes alone take less than one thread switch
                # interval, so unpaced they can finish before any read).
                hits = database.result_cache_info().hits
                while (database.result_cache_info().hits == hits
                       and not failures):
                    time.sleep(0)
            stop.set()

        def reader():
            while not stop.is_set():
                count = len(database.execute(request).locations)
                if count % batch:
                    failures.append(f"torn cached read: {count}")
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures, failures
        final = database.execute(request)
        assert len(final.locations) == 30 * batch
        info = database.result_cache_info()
        assert info.hits > 0  # the stress actually exercised the cache
