"""The batched read: plan-group semantics and plan-cache observability.

That ``execute_many`` answers every batch shape exactly like the
``execute`` loop and the model — empty-result predicates, duplicates,
unsatisfiable conjunctions, batches spanning several plan groups and
tables, for every mechanism and both pointer schemes — is a rule of the
state machine in ``test_engine_oracle``.  This file covers what the machine
does not look at: empty batches, the plan-cache
counters the batch path is supposed to demonstrate (hit/miss/replay
counters, group sizes, ``explain`` surfacing), and the batch path's cost as
counts: the ``KeyRange`` objects a batch builds do not grow with its size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.index.base import KeyRange
from repro.storage.identifiers import PointerScheme
from repro.workloads.synthetic import TABLE_NAME

from conftest import build_synthetic_database
from reference import assert_locations


def synthetic(dataset, method: IndexMethod,
              scheme: PointerScheme = PointerScheme.PHYSICAL) -> Database:
    """The Synthetic table with ``method`` on ``colC``."""
    return build_synthetic_database(dataset, scheme, method)[0]


def ranges(low: float, high: float, count: int,
           width: float) -> list[QueryRequest]:
    return [QueryRequest.range(TABLE_NAME, "colC", start, start + width)
            for start in np.linspace(low, high, count).tolist()]


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
    def test_empty_batch(self, linear_dataset):
        assert synthetic(linear_dataset, IndexMethod.BTREE
                         ).execute_many([]) == []

    def test_batch_sees_deletes(self, linear_dataset):
        """Validation drops rows deleted after the index was built."""
        database = synthetic(linear_dataset, IndexMethod.BTREE)
        request = ranges(0.0, 0.0, 1, 1e9)[0]
        before = database.execute_many([request])[0]
        victim = int(before.locations[0])
        database.delete(TABLE_NAME, victim)
        after = database.execute_many([request])[0]
        assert victim not in after.locations
        assert after.locations.size == before.locations.size - 1
        assert_locations(after, database.execute(request).locations)

    def test_results_are_sorted_unique(self, linear_dataset):
        database = synthetic(linear_dataset, IndexMethod.HERMIT,
                             PointerScheme.LOGICAL)
        result = database.execute_many(ranges(0.0, 0.0, 1, 400_000.0))[0]
        assert result.locations.size > 0
        assert_locations(result, np.unique(result.locations).tolist())


class TestPlanCacheObservability:
    def test_group_sizes_and_counters(self, linear_dataset):
        database = synthetic(linear_dataset, IndexMethod.BTREE)
        planner = database.planner
        base = planner.cache_info()
        requests = ranges(0.0, 150_000.0, 16, 10_000.0)
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
            self, monkeypatch, linear_dataset):
        """A single-column batch's bounds stay arrays from the planner to
        validation: the ``KeyRange`` objects it builds are the
        representative's few, whatever the batch size; one ``execute``
        still builds its two (the request's merged range and the one host
        range its leaf emits)."""
        database = synthetic(linear_dataset, IndexMethod.HERMIT)

        def batch(size: int) -> list[QueryRequest]:
            return ranges(0.0, 900_000.0, size, 1_000.0)

        database.execute_many(batch(256))
        # Replans and replays alternate as the batches exhaust the replay
        # bound; neither builds more than the representative's merge.
        built = [key_ranges_built(monkeypatch,
                                  lambda: database.execute_many(batch(size)))
                 for size in (16, 256, 16, 256)]
        assert len(set(built)) == 1 and built[0] <= 2, built
        request = batch(1)[0]
        database.execute(request)
        assert key_ranges_built(
            monkeypatch, lambda: database.execute(request)) == 2

    def test_replays_exceed_hits_under_batching(self, linear_dataset):
        database = synthetic(linear_dataset, IndexMethod.BTREE)
        database.execute_many(ranges(1.0, 1.0, 8, 1.0))
        info = database.planner.cache_info()
        assert info.replays > info.hits

    def test_explain_surfaces_cache_stats(self, linear_dataset):
        database = synthetic(linear_dataset, IndexMethod.BTREE)
        plan = database.explain(ranges(0.0, 0.0, 1, 50_000.0)[0])
        assert plan.cache_stats is not None
        assert "plan cache:" in plan.describe()

    def test_batch_advances_replay_bound(self, linear_dataset):
        """Group members count against the cached plan's replay bound."""
        from repro.engine.planner import _MAX_PLAN_REPLAYS
        database = synthetic(linear_dataset, IndexMethod.HERMIT)
        planner = database.planner
        request = ranges(5_000.0, 5_000.0, 1, 100_000.0)[0]
        database.execute(request)  # prime the cache
        database.execute_many([request] * (2 * _MAX_PLAN_REPLAYS))
        before = planner.cache_info()
        # The long batch exhausted the cached plan's replay bound, so the
        # next planner visit must replan from scratch.
        database.execute(request)
        after = planner.cache_info()
        assert after.misses == before.misses + 1
