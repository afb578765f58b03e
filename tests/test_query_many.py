"""The batched read: ``execute_many`` equals the ``execute`` loop.

The invariant pinned here is result-set equality: for any mechanism, either
pointer scheme and any batch shape — empty-result predicates, duplicates,
unsatisfiable conjunctions, batches spanning several plan groups — the
batched entry points must return exactly what the per-query loop returns,
in input order.  A second set of tests covers the plan-cache observability
the batch path is supposed to demonstrate (hit/miss/replay counters, group
sizes, ``explain`` surfacing) and pins the batch path's cost as counts: the
``KeyRange`` objects a batch builds do not grow with its size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.index.base import KeyRange
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

from reference import assert_locations

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ROWS = 2_500
TARGET_DOMAIN = (0.0, 1_000.0)
METHODS = ("hermit", "btree", "sorted", "cm")
SCHEMES = (PointerScheme.PHYSICAL, PointerScheme.LOGICAL)


@lru_cache(maxsize=None)
def build_database(scheme: PointerScheme, method: str) -> Database:
    """Table ``t`` (pk, host, target, payload) with a single target index,
    plus table ``u`` (pk, a, b) with no secondary index, read by full scans.

    Cached per (scheme, method): the tests only read, so every hypothesis
    example can share one built database.
    """
    rng = np.random.default_rng(11)
    low, high = TARGET_DOMAIN
    target = rng.uniform(low, high, size=ROWS)
    host = 2.0 * target + 10.0
    noisy = rng.random(ROWS) < 0.02
    host[noisy] = rng.uniform(host.min(), host.max(), size=int(noisy.sum()))

    database = Database(pointer_scheme=scheme)
    database.create_table(numeric_schema(
        "t", ["pk", "host", "target", "payload"], primary_key="pk"))
    database.insert_many("t", {
        "pk": np.arange(ROWS, dtype=np.float64),
        "host": host,
        "target": target,
        "payload": rng.uniform(0.0, 1.0, size=ROWS),
    })
    database.create_index("idx_host", "t", "host", method=IndexMethod.BTREE)
    if method == "hermit":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.HERMIT, host_column="host")
    elif method == "btree":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.BTREE)
    elif method == "sorted":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.SORTED_COLUMN)
    elif method == "cm":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.CORRELATION_MAP,
                              host_column="host",
                              cm_target_bucket_width=25.0,
                              cm_host_bucket_width=50.0)
    else:
        raise AssertionError(method)
    database.create_table(numeric_schema("u", ["pk", "a", "b"],
                                         primary_key="pk"))
    database.insert_many("u", {
        "pk": np.arange(ROWS // 2, dtype=np.float64),
        "a": rng.uniform(low, high, size=ROWS // 2),
        "b": rng.uniform(low, high, size=ROWS // 2),
    })
    return database


def bound_pairs(count_min: int = 0, count_max: int = 12):
    """Batches of (low, high) bounds, including out-of-domain empties."""
    low, high = TARGET_DOMAIN
    bound = st.floats(min_value=low - 200.0, max_value=high + 200.0,
                      allow_nan=False, width=64)
    return st.lists(st.tuples(bound, bound), min_size=count_min,
                    max_size=count_max)


def as_requests(pairs) -> list[QueryRequest]:
    return [QueryRequest.range("t", "target", min(a, b), max(a, b))
            for a, b in pairs]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("method", METHODS)
class TestQueryManyEqualsLoop:
    @SETTINGS
    @given(pairs=bound_pairs())
    def test_range_batches(self, scheme, method, pairs):
        database = build_database(scheme, method)
        requests = as_requests(pairs)
        batched = database.execute_many(requests)
        assert len(batched) == len(requests)
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)

    @SETTINGS
    @given(pairs=bound_pairs(count_min=1, count_max=6),
           point_count=st.integers(min_value=1, max_value=6))
    def test_mixed_point_and_range_batches_span_plan_groups(
            self, scheme, method, pairs, point_count):
        """Point probes and ranges in one batch land in different groups."""
        database = build_database(scheme, method)
        stored = database.table("t").column_array("target")
        requests = as_requests(pairs)
        requests.extend(QueryRequest.point("t", "target", float(v))
                        for v in stored[:point_count])
        # Duplicates of the first request exercise same-group replays.
        requests.append(requests[0])
        batched = database.execute_many(requests)
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)

    @SETTINGS
    @given(pairs=bound_pairs(count_min=1, count_max=5))
    def test_conjunctive_batches(self, scheme, method, pairs):
        """Two-column conjunctions, including an unsatisfiable one."""
        database = build_database(scheme, method)
        requests: list = []
        for low, high in pairs:
            target = RangePredicate("target", min(low, high), max(low, high))
            host = RangePredicate("host", 2.0 * target.low + 10.0,
                                  2.0 * target.high + 110.0)
            requests.append(QueryRequest.of("t", [target, host]))
        requests.append(QueryRequest.of("t", [
            RangePredicate("target", 10.0, 20.0),
            RangePredicate("target", 30.0, 40.0),  # unsatisfiable
        ]))
        batched = database.execute_many(requests)
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)
            assert result.group_size >= 1
        assert batched[-1].locations.size == 0
        assert batched[-1].plan.unsatisfiable

    @SETTINGS
    @given(lows=st.lists(st.floats(min_value=TARGET_DOMAIN[0] - 100.0,
                                   max_value=TARGET_DOMAIN[1],
                                   allow_nan=False, width=64),
                         min_size=1, max_size=12))
    def test_widths_straddling_three_buckets(self, scheme, method, lows):
        """Interleaved widths of three selectivity buckets split one column's
        ranges into several plan groups; a same-column conjunction joins the
        group of its merged range."""
        database = build_database(scheme, method)
        requests = [QueryRequest.range("t", "target", low,
                                       low + (0.5, 5.0, 50.0)[number % 3])
                    for number, low in enumerate(lows)]
        low = lows[0]
        requests.append(QueryRequest.of("t", [
            RangePredicate("target", low - 10.0, low + 5.0),
            RangePredicate("target", low, low + 60.0)]))
        batched = database.execute_many(requests)
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)

    @SETTINGS
    @given(pairs=bound_pairs(count_min=1, count_max=8))
    def test_batch_mixing_two_tables(self, scheme, method, pairs):
        """One batch over ``t`` (the mechanism) and ``u`` (full scans of
        one and of two columns), interleaved."""
        database = build_database(scheme, method)
        requests: list = []
        for number, (first, second) in enumerate(pairs):
            low, high = min(first, second), max(first, second)
            requests.append(QueryRequest.range("t", "target", low, high))
            if number % 2:
                requests.append(QueryRequest.range("u", "a", low, high))
            else:
                requests.append(QueryRequest.of("u", [
                    RangePredicate("a", low, high),
                    RangePredicate("b", low - 300.0, high + 300.0)]))
        batched = database.execute_many(requests)
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)
        assert {result.used_index for result in batched[1::2]} == {None}


def key_ranges_built(monkeypatch, call) -> int:
    """How many ``KeyRange`` objects ``call()`` constructs."""
    built = []
    original = KeyRange.__post_init__

    def counting(self) -> None:
        built.append(None)
        original(self)

    with monkeypatch.context() as patch:
        patch.setattr(KeyRange, "__post_init__", counting)
        call()
    return len(built)


class TestBatchSemantics:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_composite_path_batches(self, scheme):
        """CompositePath.execute_many equals the per-query composite plan."""
        rng = np.random.default_rng(5)
        rows = 600
        database = Database(pointer_scheme=scheme)
        database.create_table(numeric_schema(
            "c", ["pk", "a", "m", "payload"], primary_key="pk"))
        database.insert_many("c", {
            "pk": np.arange(rows, dtype=np.float64),
            "a": rng.uniform(0.0, 100.0, size=rows),
            "m": rng.uniform(0.0, 100.0, size=rows),
            "payload": rng.uniform(size=rows),
        })
        database.create_composite_index("idx_am", "c", "a", "m")
        requests = [
            QueryRequest.of("c", [RangePredicate("a", low, low + 20.0),
                                  RangePredicate("m", low + 10.0, low + 40.0)])
            for low in (0.0, 25.0, 50.0, 75.0)
        ]
        batched = database.execute_many(requests)
        assert batched[0].used_index == "idx_am"
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)

    def test_empty_batch(self):
        database = build_database(PointerScheme.PHYSICAL, "btree")
        assert database.execute_many([]) == []

    def test_batch_sees_deletes(self):
        """Validation drops rows deleted after the index was built."""
        database = build_database(PointerScheme.PHYSICAL, "sorted")
        request = QueryRequest.range("t", "target", *TARGET_DOMAIN)
        before = database.execute_many([request])[0]
        victim = int(before.locations[0])
        database.delete("t", victim)
        try:
            after = database.execute_many([request])[0]
            assert victim not in after.locations
            assert_locations(after, database.execute(request).locations)
        finally:
            # The shared cached database was mutated; rebuild on next use.
            build_database.cache_clear()

    def test_results_are_sorted_unique(self):
        database = build_database(PointerScheme.LOGICAL, "hermit")
        request = QueryRequest.range("t", "target", 100.0, 400.0)
        result = database.execute_many([request])[0]
        locations = result.locations
        assert locations.dtype == np.int64
        assert np.array_equal(locations, np.unique(locations))


class TestPlanCacheObservability:
    def test_group_sizes_and_counters(self):
        database = build_database(PointerScheme.PHYSICAL, "btree")
        planner = database.planner
        base = planner.cache_info()
        width = (TARGET_DOMAIN[1] - TARGET_DOMAIN[0]) * 1e-2
        requests = [QueryRequest.range("t", "target", 10.0 * i,
                                       10.0 * i + width)
                    for i in range(16)]
        results = database.execute_many(requests)
        assert all(r.group_size == 16 for r in results)
        info = planner.cache_info()
        # One planner visit for the whole batch; 15 members amortised, plus
        # the representative itself when its visit was a cache hit.
        assert info.misses + info.hits == base.misses + base.hits + 1
        assert info.replays == base.replays + 15 + (info.hits - base.hits)

        # From a cold cache: one miss, 15 replays, and the cached plan has
        # been replayed exactly 15 times too (it counts against its bound).
        planner.cache_clear()
        database.execute_many(requests)
        info = planner.cache_info()
        assert (info.hits, info.misses, info.replays) == (0, 1, 15)
        [cached] = planner._cache.values()
        assert cached.replays == 15
        database.execute_many(requests)
        assert planner.cache_info().replays == 15 + 16
        assert cached.replays == 15 + 16

    def test_batch_builds_key_ranges_per_group_not_per_request(
            self, monkeypatch):
        """A single-column batch's bounds stay arrays from the planner to
        validation: the ``KeyRange`` objects it builds are the
        representative's few, whatever the batch size; one ``execute``
        still builds its three."""
        database = build_database(PointerScheme.PHYSICAL, "hermit")

        def batch(size: int) -> list[QueryRequest]:
            return [QueryRequest.range("t", "target", low, low + 1.0)
                    for low in np.linspace(0.0, 900.0, size).tolist()]

        database.execute_many(batch(256))
        # Replans and replays alternate as the batches exhaust the replay
        # bound; neither builds more than the representative's merge.
        built = [key_ranges_built(monkeypatch,
                                  lambda: database.execute_many(batch(size)))
                 for size in (16, 256, 16, 256)]
        assert len(set(built)) == 1 and built[0] <= 2, built
        request = QueryRequest.range("t", "target", 100.0, 101.0)
        database.execute(request)
        assert key_ranges_built(
            monkeypatch, lambda: database.execute(request)) == 3

    def test_replays_exceed_hits_under_batching(self):
        database = build_database(PointerScheme.PHYSICAL, "sorted")
        database.execute_many([QueryRequest.range("t", "target", 1.0, 2.0)
                               for _ in range(8)])
        info = database.planner.cache_info()
        assert info.replays > info.hits

    def test_explain_surfaces_cache_stats(self):
        database = build_database(PointerScheme.PHYSICAL, "btree")
        plan = database.explain(QueryRequest.range("t", "target", 0.0, 50.0))
        assert plan.cache_stats is not None
        assert "plan cache:" in plan.describe()

    def test_batch_advances_replay_bound(self):
        """Group members count against the cached plan's replay bound."""
        from repro.engine.planner import _MAX_PLAN_REPLAYS
        database = build_database(PointerScheme.PHYSICAL, "cm")
        planner = database.planner
        request = QueryRequest.range("t", "target", 5.0, 105.0)
        database.execute(request)  # prime the cache
        database.execute_many([request] * (2 * _MAX_PLAN_REPLAYS))
        before = planner.cache_info()
        # The long batch exhausted the cached plan's replay bound, so the
        # next planner visit must replan from scratch.
        database.execute(request)
        after = planner.cache_info()
        assert after.misses == before.misses + 1
