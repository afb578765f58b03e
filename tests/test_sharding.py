"""The sharded execution tier's own contracts.

That a :class:`~repro.sharding.ShardedDatabase` answers every read like a
single engine — across every secondary mechanism, both pointer schemes and
both transports, through DML that moves rows between shards — is checked
against the model by the state machine in ``test_engine_oracle``.  This
file covers the tier itself: the process transport (pipe sync after
errors, a dead worker), maintenance summed over shards, routing and
location globalisation, rejected cross-shard writes, the serving front end
and merged planner counters.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.errors import (
    CatalogError,
    ConfigurationError,
    SchemaError,
    ShardError,
)
from repro.serving.server import Server
from repro.sharding import LOCATION_STRIDE, ShardedDatabase, uniform_boundaries
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


class TestProcessTransport:
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


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_reorganize_sums_every_shard(mode):
    with ShardedDatabase(num_shards=2, mode=mode) as sharded:
        sharded.create_table(create_schema(),
                             uniform_boundaries(0.0, DOMAIN, 2))
        columns = dataset()
        sharded.insert_many("trace", columns)
        create_secondary(sharded, IndexMethod.HERMIT)
        # Off-band rows on both sides of the boundary flag both trees.
        rng = np.random.default_rng(4)
        extra = {"pk": np.concatenate([-1.0 - np.arange(500.0),
                                       DOMAIN + np.arange(500.0)]),
                 "host": rng.uniform(-1e4, 1e4, 1000),
                 "target": rng.uniform(0.0, 1000.0, 1000)}
        sharded.insert_many("trace", extra)
        if mode == "inline":
            pending = [shard.database.catalog.table_entry("trace")
                       .indexes["idx_target"].mechanism
                       .pending_reorganizations
                       for shard in sharded._shards]
            assert min(pending) > 0
        assert sharded.reorganize() > 0
        assert sharded.reorganize() == 0
        targets = np.concatenate([columns["target"], extra["target"]])
        found = sharded.execute(
            QueryRequest.range("trace", "target", 100.0, 300.0)).locations
        assert found.size == np.count_nonzero((targets >= 100.0)
                                              & (targets <= 300.0))


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

    def test_rejected_cross_shard_update_keeps_the_row(self):
        """A primary-key move whose patched row the new owner rejects
        leaves the row where it was, as on one engine."""
        columns = {name: np.arange(100, dtype=np.float64)
                   for name in ("pk", "host", "target")}
        moving = {"pk": 90.0, "target": "not-a-number"}
        single = Database()
        single.create_table(create_schema())
        with ShardedDatabase(num_shards=2, mode="inline") as sharded:
            sharded.create_table(create_schema(), [50.0])
            for database in (single, sharded):
                location = database.insert_many("trace", columns)[10]
                with pytest.raises(SchemaError):
                    database.update("trace", location, moving)
            assert single.table("trace").num_rows == 100
            assert sharded.num_rows("trace") == 100
            assert sharded.fetch("trace", location)["pk"] == 10.0

    def test_single_shard_needs_no_boundaries(self):
        with ShardedDatabase(num_shards=1, mode="inline") as sharded:
            sharded.create_table(create_schema())
            assert sharded.insert_many("trace", dataset()) == list(
                range(NUM_ROWS))

    def test_foreign_location_rejected(self):
        with ShardedDatabase(num_shards=2, mode="inline") as sharded:
            sharded.create_table(create_schema(),
                                 uniform_boundaries(0.0, DOMAIN, 2))
            with pytest.raises(ConfigurationError):
                sharded.fetch("trace", 5 * LOCATION_STRIDE)


REJECTED_ROWS = {
    "unknown_column": {"pk": 1.0, "host": 1.0, "target": 1.0, "ghost": 1.0},
    "missing_column": {"pk": 1.0, "host": 1.0},
    "missing_primary_key": {"host": 1.0, "target": 1.0},
    "empty_row": {},
}


@pytest.mark.parametrize("engine", ["database", "sharded_inline"])
@pytest.mark.parametrize("entry_point", ["insert", "insert_many"])
@pytest.mark.parametrize("fault", sorted(REJECTED_ROWS))
def test_a_rejected_row_raises_one_error_at_every_entry_point(
        engine, entry_point, fault):
    """One validation, one error: a row naming an unknown column, or
    lacking a non-nullable one (the primary key included), is a
    ``SchemaError`` through either insert of either engine, and nothing is
    stored.  An empty row is refused the same way; its batch form ``{}``
    is a batch of no rows."""
    row = REJECTED_ROWS[fault]
    with ShardedDatabase(num_shards=2, mode="inline") as sharded:
        if engine == "sharded_inline":
            database = sharded
            database.create_table(create_schema(), [50.0])
        else:
            database = Database()
            database.create_table(create_schema())
        if entry_point == "insert_many" and not row:
            assert database.insert_many("trace", row) == []
        else:
            with pytest.raises(SchemaError):
                if entry_point == "insert":
                    database.insert("trace", row)
                else:
                    database.insert_many(
                        "trace", {name: [value] for name, value in row.items()})
        rows = (sharded.num_rows("trace") if database is sharded
                else database.table("trace").num_rows)
        assert rows == 0


@pytest.mark.parametrize("engine, changes", [
    ("database", {"target": 1.0, "ghost": 1.0}),
    ("sharded_inline", {"target": 1.0, "ghost": 1.0}),          # in place
    ("sharded_inline", {"pk": 90.0, "ghost": 1.0}),   # crosses the shards
], ids=["database", "sharded_in_place", "sharded_cross_shard"])
def test_an_unknown_column_in_an_update_is_one_error(engine, changes):
    """An update naming an unknown column is a ``SchemaError``, as an insert
    naming one is, whichever engine and path takes it; the row keeps its
    values and its shard."""
    columns = {name: np.arange(100, dtype=np.float64)
               for name in ("pk", "host", "target")}
    with ShardedDatabase(num_shards=2, mode="inline") as sharded:
        if engine == "sharded_inline":
            database = sharded
            database.create_table(create_schema(), [50.0])
        else:
            database = Database()
            database.create_table(create_schema())
        location = database.insert_many("trace", columns)[10]
        with pytest.raises(SchemaError):
            database.update("trace", location, changes)
        row = (sharded.fetch("trace", location) if database is sharded
               else database.table("trace").fetch(location))
        assert row == {"pk": 10.0, "host": 10.0, "target": 10.0}


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
