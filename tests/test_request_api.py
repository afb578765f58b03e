"""The unified request/result API: ``QueryRequest`` in, ``QueryResult`` out.

``Database.execute`` / ``execute_many`` are the planned read entry
points.  These tests pin the request constructors' coercion rules and the
request-boundary policy (NaN bounds are rejected before a request exists),
the result fields (sorted unique int64 locations, plan, group size,
epoch), multi-table batching, and the input-order guarantee of
``execute_many``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import (
    ConjunctiveQuery,
    QueryRequest,
    QueryResult,
    RangePredicate,
    conjunction,
)
from repro.errors import QueryError
from repro.serving import Server
from repro.storage.schema import numeric_schema

from reference import assert_locations


@pytest.fixture(scope="module")
def database() -> Database:
    """Two tables with sorted indexes, small enough to brute-force."""
    rng = np.random.default_rng(3)
    db = Database()
    for name, rows in (("alpha", 1_500), ("beta", 900)):
        target = rng.uniform(0.0, 1_000.0, size=rows)
        db.create_table(numeric_schema(
            name, ["pk", "host", "target", "payload"], primary_key="pk"))
        db.insert_many(name, {
            "pk": np.arange(rows, dtype=np.float64),
            "host": 2.0 * target + 10.0,
            "target": target,
            "payload": rng.uniform(0.0, 1.0, size=rows),
        })
        db.create_index(f"idx_{name}", name, "target",
                        method=IndexMethod.BTREE)
    return db


def brute_force(db: Database, table: str, low: float, high: float) -> list:
    slots, values = db.table(table).project(["target"])
    mask = (values >= low) & (values <= high)
    return np.sort(slots[mask]).tolist()


class TestQueryRequestConstructors:
    def test_point_is_degenerate_range(self):
        request = QueryRequest.point("t", "c", 5.0)
        assert request.is_point
        (predicate,) = request.predicates
        assert (predicate.low, predicate.high) == (5.0, 5.0)

    def test_range(self):
        request = QueryRequest.range("t", "c", 1.0, 2.0)
        assert not request.is_point
        assert request.table == "t"
        assert request.query.predicates[0].column == "c"

    def test_conjunctive(self):
        request = QueryRequest.conjunctive("t", [
            RangePredicate("a", 0.0, 1.0), RangePredicate("b", 2.0, 3.0)])
        assert [p.column for p in request.predicates] == ["a", "b"]
        assert not request.is_point

    def test_of_coerces_every_accepted_shape(self):
        predicate = RangePredicate("c", 0.0, 1.0)
        from_predicate = QueryRequest.of("t", predicate)
        from_list = QueryRequest.of("t", [predicate])
        from_query = QueryRequest.of("t", conjunction(predicate))
        assert (from_predicate.query.predicates
                == from_list.query.predicates
                == from_query.query.predicates)

    def test_requests_are_frozen_and_hashable(self):
        request = QueryRequest.point("t", "c", 5.0)
        with pytest.raises(AttributeError):
            request.table = "other"  # type: ignore[misc]
        assert request == QueryRequest.point("t", "c", 5.0)
        assert len({request, QueryRequest.point("t", "c", 5.0)}) == 1


class TestNaNBoundsAreRejectedAtTheRequestBoundary:
    """``execute`` used to answer ``[10, nan]`` with 0 rows (a scan) while
    ``execute_many`` answered it as ``[10, +inf]``; now no such request
    can be built, so neither entry point — nor a coalesced batch — ever
    sees one."""

    NAN = float("nan")

    @pytest.mark.parametrize("low, high", [(10.0, NAN), (NAN, 10.0),
                                           (NAN, NAN)])
    def test_every_constructor_raises(self, low, high):
        with pytest.raises(QueryError, match="NaN"):
            RangePredicate("target", low, high)
        with pytest.raises(QueryError, match="NaN"):
            QueryRequest.range("alpha", "target", low, high)
        with pytest.raises(QueryError, match="NaN"):
            QueryRequest.of("alpha", [RangePredicate("target", 0.0, 1.0),
                                      RangePredicate("host", low, high)])

    def test_point_raises(self):
        with pytest.raises(QueryError, match="NaN"):
            QueryRequest.point("alpha", "target", self.NAN)

    def test_no_entry_point_is_reached(self, database):
        """The error surfaces while the caller builds the argument, so
        ``execute`` / ``execute_many`` / ``Server.submit`` never run — and
        the batch-mates of a malformed request are never at risk."""
        before = database.planner_cache_stats()
        with pytest.raises(QueryError):
            database.execute(QueryRequest.range("alpha", "target", 10.0,
                                                self.NAN))
        with pytest.raises(QueryError):
            database.execute_many([
                QueryRequest.range("alpha", "target", 0.0, 50.0),
                QueryRequest.range("alpha", "target", 10.0, self.NAN),
            ])
        with Server(database) as server:
            with pytest.raises(QueryError):
                server.submit(QueryRequest.range("alpha", "target", 10.0,
                                                 self.NAN))
            assert server.stats().requests == 0
        assert database.planner_cache_stats() == before

    def test_inverted_bounds_keep_their_message(self):
        with pytest.raises(QueryError, match="low > high"):
            RangePredicate("target", 2.0, 1.0)

    def test_infinite_bounds_are_fine(self, database):
        request = QueryRequest.range("alpha", "target", float("-inf"),
                                     float("inf"))
        assert len(database.execute(request)) == 1_500
        assert len(database.execute_many([request])[0]) == 1_500


class TestExecute:
    def test_execute_returns_transport_result(self, database):
        request = QueryRequest.range("alpha", "target", 100.0, 160.0)
        result = database.execute(request)
        assert isinstance(result, QueryResult)
        assert_locations(result, brute_force(database, "alpha", 100.0, 160.0))
        assert result.used_index == "idx_alpha"
        assert result.plan is not None
        assert result.epoch is not None
        assert len(result) == len(result.locations)

    def test_unsatisfiable_conjunction_is_empty(self, database):
        request = QueryRequest.conjunctive("alpha", [
            RangePredicate("target", 0.0, 10.0),
            RangePredicate("target", 500.0, 600.0),
        ])
        assert_locations(database.execute(request), [])
        assert_locations(database.execute_many([request])[0], [])

    def test_default_result_is_an_empty_int64_array(self):
        assert_locations(QueryResult(), [])
        # Array-valued fields: results compare by identity, not by value.
        assert QueryResult() != QueryResult()


class TestExecuteMany:
    def test_multi_table_batch_keeps_input_order(self, database):
        requests = [
            QueryRequest.range("alpha", "target", 0.0, 50.0),
            QueryRequest.range("beta", "target", 100.0, 180.0),
            QueryRequest.range("alpha", "target", 900.0, 1_000.0),
            QueryRequest.point("beta", "target", 123.456),
        ]
        results = database.execute_many(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            (predicate,) = request.predicates
            assert_locations(result, brute_force(
                database, request.table, predicate.low, predicate.high))
            assert result.used_index == f"idx_{request.table}"

    def test_batch_matches_per_call_execute(self, database):
        requests = [QueryRequest.range("alpha", "target", low, low + 40.0)
                    for low in (0.0, 200.0, 400.0, 600.0, 800.0)]
        batched = database.execute_many(requests)
        for request, result in zip(requests, batched):
            assert_locations(result, database.execute(request).locations)

    def test_batch_shares_one_epoch(self, database):
        requests = [QueryRequest.range("alpha", "target", 0.0, 10.0),
                    QueryRequest.range("beta", "target", 0.0, 10.0)]
        epochs = {result.epoch for result in database.execute_many(requests)}
        assert len(epochs) == 1

    def test_same_shape_requests_share_plan_group(self, database):
        requests = [QueryRequest.point("alpha", "target", float(v))
                    for v in (10.0, 20.0, 30.0)]
        results = database.execute_many(requests)
        assert all(result.group_size == 3 for result in results)
        assert len({id(result.plan) for result in results}) == 1

    def test_empty_batch(self, database):
        assert database.execute_many([]) == []


class TestEpochVisibility:
    def test_mutation_advances_result_epoch(self):
        db = Database()
        db.create_table(numeric_schema("t", ["pk", "v"], primary_key="pk"))
        db.insert_many("t", {"pk": np.arange(10, dtype=np.float64),
                             "v": np.arange(10, dtype=np.float64)})
        request = QueryRequest.range("t", "v", 0.0, 100.0)
        before = db.execute(request)
        db.insert_many("t", {"pk": np.array([100.0]), "v": np.array([50.0])})
        after = db.execute(request)
        assert after.epoch > before.epoch
        assert len(after.locations) == len(before.locations) + 1
