"""Scatter/gather equivalence tests for the sharded execution tier.

The contract under test: a :class:`~repro.sharding.ShardedDatabase` fed an
identical DDL + DML + query trace as a single
:class:`~repro.engine.database.Database` returns exactly the same *rows*
for every query — across every secondary mechanism (B+-tree baseline,
sorted column, Hermit, Correlation Map) and both pointer schemes.  Row
locations themselves differ by construction (the sharded tier globalises
them as ``shard * LOCATION_STRIDE + local``), so results are compared by
primary key after a ``fetch`` round-trip — which simultaneously proves the
global locations resolve.

Most tests run ``mode="inline"`` (deterministic, no processes) — inline
and process shards share one command dispatcher, so the process tests only
need to cover the transport itself (pickling, pipe sync after errors, a
dead worker, concurrent fan-out) plus one end-to-end trace.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate, conjunction
from repro.errors import CatalogError, ConfigurationError, ShardError
from repro.serving.server import Server
from repro.sharding import LOCATION_STRIDE, ShardedDatabase, uniform_boundaries
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

from reference import assert_locations

pytestmark = pytest.mark.sharding

NUM_ROWS = 4000
DOMAIN = float(NUM_ROWS)


def dataset(seed: int = 0):
    """Shuffled-pk rows with host linearly correlated to target plus noise."""
    rng = np.random.default_rng(seed)
    pk = np.arange(NUM_ROWS, dtype=np.float64)
    rng.shuffle(pk)
    target = rng.uniform(0.0, 1000.0, NUM_ROWS)
    host = 3.0 * target + 5.0 + rng.normal(0.0, 0.5, NUM_ROWS)
    host[: NUM_ROWS // 50] += 4000.0  # outliers
    return {"pk": pk, "host": host, "target": target}


def create_schema():
    return numeric_schema("trace", ["pk", "host", "target"],
                          primary_key="pk")


def create_secondary(database, method: IndexMethod) -> None:
    kwargs = {}
    if method in (IndexMethod.HERMIT, IndexMethod.CORRELATION_MAP):
        kwargs["host_column"] = "host"
    if method is IndexMethod.CORRELATION_MAP:
        kwargs["cm_target_bucket_width"] = 50.0
        kwargs["cm_host_bucket_width"] = 150.0
    database.create_index("idx_host", "trace", "host")
    database.create_index("idx_target", "trace", "target", method=method,
                          **kwargs)


def pk_set(database, result) -> "set[float]":
    if isinstance(database, ShardedDatabase):
        return {database.fetch("trace", loc)["pk"]
                for loc in result.locations}
    entry = database.catalog.table_entry("trace")
    return {entry.table.fetch(loc)["pk"] for loc in result.locations}


def run_trace(reference: Database, sharded: ShardedDatabase) -> None:
    """Identical DML + query trace against both; compare rows by pk."""
    columns = dataset()
    ref_locations = reference.insert_many("trace", dict(columns))
    shard_locations = sharded.insert_many("trace", dict(columns))
    assert len(shard_locations) == NUM_ROWS

    by_pk_ref = dict(zip(columns["pk"].tolist(), ref_locations))
    by_pk_shard = dict(zip(columns["pk"].tolist(), shard_locations))

    # Interleaved mutations: deletes, in-place updates, and a pk move that
    # crosses a shard boundary.
    for pk in columns["pk"][10:40:3].tolist():
        reference.delete("trace", by_pk_ref.pop(pk))
        sharded.delete("trace", by_pk_shard.pop(pk))
    for pk in columns["pk"][100:130:5].tolist():
        reference.update("trace", by_pk_ref[pk], {"target": 1500.0})
        sharded.update("trace", by_pk_shard[pk], {"target": 1500.0})
    moving = columns["pk"][200]
    new_pk = DOMAIN + 17.0  # beyond every boundary: lands on the last shard
    reference.update("trace", by_pk_ref[moving], {"pk": new_pk})
    moved = sharded.update("trace", by_pk_shard[moving], {"pk": new_pk})
    assert sharded.fetch("trace", moved)["pk"] == new_pk

    requests = []
    for low in np.linspace(0.0, 3200.0, 20):
        requests.append(QueryRequest.of(
            "trace", RangePredicate("target", float(low), float(low) + 150.0)))
    requests.append(QueryRequest.of(
        "trace", RangePredicate("target", 1500.0, 1500.0)))
    requests.append(QueryRequest.of("trace", conjunction(
        RangePredicate("target", 200.0, 900.0),
        RangePredicate("host", 1000.0, 2400.0))))
    # Merge edge cases: a range no row matches, matches that all live on
    # the last shard, and a point probe that hits one row.
    requests.append(QueryRequest.range("trace", "target", 5000.0, 6000.0))
    requests.append(QueryRequest.of("trace", conjunction(
        RangePredicate("target", 0.0, 1000.0),
        RangePredicate("pk", 3000.0, DOMAIN + 100.0))))
    requests.append(QueryRequest.point("trace", "target",
                                       float(columns["target"][500])))

    ref_results = reference.execute_many(requests)
    shard_results = sharded.execute_many(requests)
    for position, (ref, shard) in enumerate(zip(ref_results, shard_results)):
        assert pk_set(reference, ref) == pk_set(sharded, shard), position
        # The merged result honours the same contract as a single engine's.
        assert_locations(shard, shard.locations)
        assert_locations(sharded.execute(requests[position]), shard.locations)
    no_match, last_shard_only, point = shard_results[-3:]
    assert no_match.locations.size == 0
    assert set((last_shard_only.locations // LOCATION_STRIDE).tolist()) == {
        sharded.num_shards - 1}
    assert point.locations.size == 1
    assert sharded.num_rows("trace") == reference.catalog.table_entry(
        "trace").table.num_rows


MECHANISMS = [IndexMethod.BTREE, IndexMethod.SORTED_COLUMN,
              IndexMethod.HERMIT, IndexMethod.CORRELATION_MAP]


class TestEquivalence:
    @pytest.mark.parametrize("method", MECHANISMS, ids=lambda m: m.value)
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL],
                             ids=lambda s: s.value)
    def test_matches_single_database(self, method, scheme):
        reference = Database(pointer_scheme=scheme)
        reference.create_table(create_schema())
        create_secondary(reference, method)
        with ShardedDatabase(num_shards=3, mode="inline",
                             pointer_scheme=scheme) as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 3))
            create_secondary(sharded, method)
            run_trace(reference, sharded)

    def test_single_shard_degenerates_to_one_database(self):
        reference = Database()
        reference.create_table(create_schema())
        create_secondary(reference, IndexMethod.HERMIT)
        with ShardedDatabase(num_shards=1, mode="inline") as sharded:
            sharded.create_table(create_schema())
            create_secondary(sharded, IndexMethod.HERMIT)
            run_trace(reference, sharded)


class TestProcessTransport:
    def test_process_mode_end_to_end(self):
        reference = Database()
        reference.create_table(create_schema())
        create_secondary(reference, IndexMethod.HERMIT)
        with ShardedDatabase(num_shards=2, mode="process") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            create_secondary(sharded, IndexMethod.HERMIT)
            run_trace(reference, sharded)

    def test_pipe_stays_in_sync_after_shard_error(self):
        with ShardedDatabase(num_shards=2, mode="process") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            with pytest.raises(CatalogError):
                sharded.insert_many("missing", {"pk": np.arange(4.0)})
            # The failed broadcast must not desynchronise later commands.
            sharded.insert_many("trace", {
                "pk": np.array([1.0, 3000.0]),
                "host": np.array([0.0, 1.0]),
                "target": np.array([0.0, 1.0]),
            })
            assert sharded.shard_row_counts("trace") == [1, 1]

    def test_dead_worker_raises_instead_of_hanging(self):
        with ShardedDatabase(num_shards=2, mode="process") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            sharded.insert_many("trace", {
                "pk": np.array([1.0, 3000.0]),
                "host": np.array([0.0, 1.0]),
                "target": np.array([0.0, 1.0]),
            })
            worker = sharded._shards[1]._process
            worker.kill()
            worker.join(timeout=5.0)
            request = QueryRequest.range("trace", "target", 0.0, 10.0)
            errors: list[ShardError] = []

            def read_twice() -> None:
                for _ in range(2):
                    try:
                        sharded.execute_many([request])
                    except ShardError as error:
                        errors.append(error)

            # A hang must fail the test, not stall the suite: call from a
            # daemon thread and give up on it after a bounded wait.
            caller = threading.Thread(target=read_twice, daemon=True)
            caller.start()
            caller.join(timeout=30.0)
            assert not caller.is_alive(), "execute_many hung on a dead worker"
            assert len(errors) == 2
            assert f"shard 1 worker exited with code {-signal.SIGKILL}" in str(
                errors[0])
            # The live shard's replies were drained: it still answers in step.
            assert sharded._call(0, "num_rows", "trace") == 1


class TestRoutingAndLocations:
    def test_locations_globalised_in_input_order(self):
        with ShardedDatabase(num_shards=4, mode="inline") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 4))
            columns = dataset(seed=3)
            locations = sharded.insert_many("trace", columns)
            for pk, location in zip(columns["pk"].tolist(), locations[:50]):
                assert sharded.fetch("trace", location)["pk"] == pk
            shards = {loc // LOCATION_STRIDE for loc in locations}
            assert shards == {0, 1, 2, 3}
            counts = sharded.shard_row_counts("trace")
            assert sum(counts) == NUM_ROWS
            assert min(counts) > 0

    def test_boundary_validation(self):
        with ShardedDatabase(num_shards=3, mode="inline") as sharded:
            with pytest.raises(ConfigurationError):
                sharded.create_table(create_schema())  # missing boundaries
            with pytest.raises(ConfigurationError):
                sharded.create_table(create_schema(), [10.0])  # wrong count
            with pytest.raises(ConfigurationError):
                sharded.create_table(create_schema(), [20.0, 10.0])
        with pytest.raises(ConfigurationError):
            ShardedDatabase(num_shards=0, mode="inline")
        with pytest.raises(ConfigurationError):
            ShardedDatabase(num_shards=2, mode="threads")

    def test_foreign_location_rejected(self):
        with ShardedDatabase(num_shards=2, mode="inline") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            with pytest.raises(ConfigurationError):
                sharded.fetch("trace", 5 * LOCATION_STRIDE)


class TestServingFrontEnd:
    def test_server_sits_in_front_unchanged(self):
        with ShardedDatabase(num_shards=2, mode="inline") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            create_secondary(sharded, IndexMethod.HERMIT)
            columns = dataset(seed=5)
            sharded.insert_many("trace", columns)
            server = Server(sharded)
            try:
                requests = [
                    QueryRequest.range("trace", "target", low, low + 100.0)
                    for low in np.linspace(0.0, 900.0, 16)
                ]
                futures = [server.submit(request) for request in requests]
                direct = sharded.execute_many(requests)
                for future, expected in zip(futures, direct):
                    assert_locations(future.result(timeout=30.0),
                                     expected.locations)
                stats = server.stats()
                assert stats.plan_cache.replays > 0
                assert "trace" in stats.plan_cache_per_table
            finally:
                server.close()

    def test_planner_counters_merge_across_shards(self):
        with ShardedDatabase(num_shards=2, mode="inline") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            sharded.insert_many("trace", dataset(seed=6))
            sharded.execute_many(
                [QueryRequest.range("trace", "pk", 0.0, 100.0)] * 4)
            totals = sharded.planner_cache_stats()
            per_table = sharded.planner_cache_info()
            # Both shards planned the same 4-query batch once each.
            assert totals.misses == 2
            assert totals.replays == 8 - 2
            assert per_table["trace"] == totals
