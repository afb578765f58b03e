"""Unit and integration tests for the planner subsystem.

Covers the query model (ConjunctiveQuery merging), the catalog statistics,
cost-based path selection (complete index over Hermit, scan when nothing
covers),
plan caching/invalidation, and end-to-end correctness of planned conjunctive
queries against a brute-force scan under both pointer schemes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.access_path import FullScanPath, MechanismPath
from repro.engine.catalog import ColumnStats, IndexMethod
from repro.engine.database import Database
from repro.engine.query import (
    ConjunctiveQuery,
    QueryRequest,
    RangePredicate,
    conjunction,
)
from repro.errors import QueryError
from repro.index.base import KeyRange
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.workloads.synthetic import generate_synthetic, load_synthetic

from reference import assert_locations, scan_locations


class TestConjunctiveQuery:
    def test_requires_predicates(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([])

    def test_merges_same_column(self):
        query = conjunction(RangePredicate("x", 0.0, 10.0),
                            RangePredicate("x", 5.0, 20.0))
        merged = query.merged()
        assert merged == {"x": KeyRange(5.0, 10.0)}

    def test_disjoint_same_column_is_unsatisfiable(self):
        query = conjunction(RangePredicate("x", 0.0, 1.0),
                            RangePredicate("x", 2.0, 3.0))
        assert query.merged() is None

    def test_columns_keep_first_appearance_order(self):
        query = conjunction(RangePredicate("b", 0.0, 1.0),
                            RangePredicate("a", 0.0, 1.0),
                            RangePredicate("b", 0.5, 2.0))
        assert query.columns == ["b", "a"]
        assert len(query) == 3


class TestColumnStats:
    def test_uniform_selectivity(self):
        stats = ColumnStats(1000, 0.0, 100.0)
        assert stats.selectivity(KeyRange(0.0, 10.0)) == pytest.approx(0.1)
        assert stats.selectivity(KeyRange(200.0, 300.0)) == 0.0
        assert stats.estimated_rows(KeyRange(0.0, 50.0)) == pytest.approx(500)

    def test_point_floors_at_one_row(self):
        stats = ColumnStats(1000, 0.0, 100.0)
        assert stats.selectivity(KeyRange(5.0, 5.0)) == pytest.approx(1e-3)

    def test_no_observations_falls_back_to_default(self):
        stats = ColumnStats(1000, float("inf"), float("-inf"))
        assert not stats.has_range
        assert 0.0 < stats.selectivity(KeyRange(0.0, 1.0)) < 1.0

    def test_degenerate_domain(self):
        stats = ColumnStats(10, 5.0, 5.0)
        assert stats.selectivity(KeyRange(0.0, 10.0)) == 1.0
        assert stats.selectivity(KeyRange(6.0, 7.0)) == 0.0


@pytest.fixture(scope="module")
def planner_db():
    """Synthetic table with Hermit + B+-tree on colC and a B+-tree on colD."""
    dataset = generate_synthetic(8000, "linear", noise_fraction=0.01, seed=11)
    database = Database()
    table_name = load_synthetic(database, dataset)
    database.create_index("idx_colC_hermit", table_name, "colC",
                          method=IndexMethod.HERMIT, host_column="colB")
    database.create_index("idx_colC_btree", table_name, "colC",
                          method=IndexMethod.BTREE)
    database.create_index("idx_colD", table_name, "colD",
                          method=IndexMethod.BTREE)
    return database, table_name


def brute_force(database, table_name, predicates) -> np.ndarray:
    table = database.table(table_name)
    columns = [predicate.column for predicate in predicates]
    projected = table.project(columns)
    slots = projected[0]
    mask = np.ones(slots.shape, dtype=bool)
    for predicate, values in zip(predicates, projected[1:]):
        mask &= (values >= predicate.low) & (values <= predicate.high)
    return np.sort(slots[mask])


class TestPlanSelection:
    def test_prefers_complete_index_over_hermit(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 0.0, 20_000.0)))
        assert plan.used_index == "idx_colC_btree"
        assert not plan.is_full_scan

    def test_point_lookup_prefers_complete_index(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 5_000.0, 5_000.0)))
        assert plan.used_index == "idx_colC_btree"

    def test_index_is_chosen_on_its_column(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(
            table_name, RangePredicate("colD", 0.1, 0.11)))
        assert plan.used_index == "idx_colD"

    def test_no_index_falls_back_to_scan(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(
            table_name, RangePredicate("colA", 0.0, 100.0)))
        assert plan.used_index is None
        assert plan.is_full_scan

    def test_unselective_predicate_scans(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 0.0, 999_999.0)))
        assert plan.is_full_scan

    def test_conjunctive_drives_with_most_selective_column(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(table_name, conjunction(
            RangePredicate("colC", 0.0, 5_000.0),       # narrow
            RangePredicate("colB", 0.0, 1_500_000.0),   # wide
        )))
        assert plan.used_index == "idx_colC_btree"
        plan = database.explain(QueryRequest.of(table_name, conjunction(
            RangePredicate("colC", 0.0, 800_000.0),     # wide
            RangePredicate("colB", 0.0, 15_000.0),      # narrow
        )))
        assert plan.used_index == "idx_colB"

    def test_describe_names_every_path(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(table_name, conjunction(
            RangePredicate("colC", 0.0, 5_000.0),
            RangePredicate("colB", 0.0, 1_500_000.0),
        )))
        explained = plan.describe()
        assert "drive" in explained
        assert "validate" in explained
        assert plan.used_index in explained

    def test_unsatisfiable_plan(self, planner_db):
        database, table_name = planner_db
        plan = database.explain(QueryRequest.of(table_name, conjunction(
            RangePredicate("colC", 0.0, 1.0),
            RangePredicate("colC", 2.0, 3.0),
        )))
        assert plan.unsatisfiable
        assert "unsatisfiable" in plan.describe()


class TestPlanCache:
    def test_same_shape_query_replays_cached_plan(self, planner_db):
        database, table_name = planner_db
        database.planner_cache_clear()
        first = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 0.0, 10_000.0)))
        second = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 40_000.0, 50_000.0)))
        assert second.used_index == first.used_index
        # The replayed plan carries the *new* range around the cached
        # template's own path objects.
        assert second is not first
        assert second.merged == {"colC": KeyRange(40_000.0, 50_000.0)}
        assert second.paths[0] is first.paths[0]

    def test_index_ddl_invalidates_cache(self):
        dataset = generate_synthetic(3000, "linear", noise_fraction=0.01,
                                     seed=12)
        database = Database()
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c_hermit", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        predicate = RangePredicate("colC", 0.0, 10_000.0)
        assert database.explain(QueryRequest.of(
            table_name, predicate)).used_index == "idx_c_hermit"
        database.create_index("idx_c_btree", table_name, "colC",
                              method=IndexMethod.BTREE)
        assert database.explain(QueryRequest.of(
            table_name, predicate)).used_index == "idx_c_btree"
        database.drop_index(table_name, "idx_c_btree")
        assert database.explain(QueryRequest.of(
            table_name, predicate)).used_index == "idx_c_hermit"

    def test_selectivity_bucket_change_replans(self, planner_db):
        database, table_name = planner_db
        narrow = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 0.0, 2_000.0)))
        wide = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 0.0, 999_999.0)))
        assert not narrow.is_full_scan
        assert wide.is_full_scan


class TestPlannedExecution:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_conjunctive_matches_brute_force(self, scheme):
        dataset = generate_synthetic(4000, "linear", noise_fraction=0.02,
                                     seed=13)
        database = Database(pointer_scheme=scheme)
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_colC", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        cases = [
            [RangePredicate("colC", 100_000.0, 200_000.0)],
            [RangePredicate("colC", 0.0, 50_000.0),
             RangePredicate("colB", 0.0, 80_000.0)],
            [RangePredicate("colC", 100_000.0, 400_000.0),
             RangePredicate("colD", 0.2, 0.7)],
            [RangePredicate("colB", 0.0, 300_000.0),
             RangePredicate("colC", 100_000.0, 120_000.0),
             RangePredicate("colD", 0.0, 0.9)],
        ]
        for predicates in cases:
            planned = database.execute(QueryRequest.of(table_name, predicates))
            expected = brute_force(database, table_name, predicates)
            assert np.array_equal(planned.locations, expected), predicates
            assert planned.locations.dtype == np.int64

    def test_result_is_sorted_unique_array(self, planner_db):
        database, table_name = planner_db
        planned = database.execute(QueryRequest.of(
            table_name, [RangePredicate("colC", 0.0, 100_000.0)]
        ))
        locations = planned.locations
        assert isinstance(locations, np.ndarray)
        assert np.all(np.diff(locations) > 0)

    def test_unsatisfiable_returns_empty(self, planner_db):
        database, table_name = planner_db
        planned = database.execute(QueryRequest.of(table_name, conjunction(
            RangePredicate("colC", 0.0, 1.0),
            RangePredicate("colC", 5.0, 6.0),
        )))
        assert len(planned) == 0
        assert planned.locations.dtype == np.int64

    def test_single_predicate_accepted_directly(self, planner_db):
        database, table_name = planner_db
        predicate = RangePredicate("colC", 0.0, 50_000.0)
        direct = database.execute(QueryRequest.of(table_name, predicate))
        wrapped = database.execute(QueryRequest.of(table_name, [predicate]))
        assert np.array_equal(direct.locations, wrapped.locations)

    def test_planned_queries_feed_mechanism_observation(self):
        """Single-mechanism plans update the mechanism's cumulative stats.

        The observed false-positive ratio drives ``estimate_candidates``,
        so planner-routed queries must record it like forced reads do —
        otherwise a leaky Hermit index would be priced at the default
        ratio forever.
        """
        dataset = generate_synthetic(3000, "linear", noise_fraction=0.02,
                                     seed=15)
        database = Database()
        table_name = load_synthetic(database, dataset)
        entry = database.create_index("idx_c", table_name, "colC",
                                      method=IndexMethod.HERMIT,
                                      host_column="colB")
        assert entry.mechanism.cumulative.candidates == 0
        database.execute(QueryRequest.of(
            table_name, RangePredicate("colC", 0.0, 200_000.0)
        ))
        assert entry.mechanism.cumulative.lookups == 1
        assert entry.mechanism.cumulative.candidates > 0

    def test_validate_only_rejections_do_not_pollute_observation(self):
        """Rows rejected by an uncovered predicate are not the mechanism's FPs."""
        dataset = generate_synthetic(3000, "linear", noise_fraction=0.02,
                                     seed=15)
        database = Database()
        table_name = load_synthetic(database, dataset)
        entry = database.create_index("idx_c", table_name, "colC",
                                      method=IndexMethod.HERMIT,
                                      host_column="colB")
        database.execute(QueryRequest.of(table_name, conjunction(
            RangePredicate("colC", 0.0, 200_000.0),
            RangePredicate("colD", 0.0, 1e-9),   # rejects nearly everything
        )))
        # The plan covered only colC with the Hermit path, so the colD
        # rejections must not be booked as Hermit false positives.
        assert entry.mechanism.cumulative.candidates == 0

    def test_plan_cache_replay_bound_triggers_replan(self):
        """A cached plan is repriced after its replay bound."""
        from repro.engine.planner import _MAX_PLAN_REPLAYS

        dataset = generate_synthetic(3000, "linear", noise_fraction=0.02,
                                     seed=16)
        database = Database()
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        predicate = RangePredicate("colC", 0.0, 100_000.0)
        first = database.explain(QueryRequest.of(table_name, predicate))

        def cache_entry():
            entries = [cached for key, cached in
                       database.planner._cache.items()
                       if key[:2] == (table_name, ("colC",))]
            assert len(entries) == 1
            return entries[0]

        cached = cache_entry()
        for _ in range(_MAX_PLAN_REPLAYS + 1):
            database.explain(QueryRequest.of(table_name, predicate))
        assert cache_entry() is not cached  # a fresh template was planned
        assert database.explain(QueryRequest.of(
            table_name, predicate)).used_index == \
            first.used_index

    def test_alternating_query_shapes_each_hit_their_own_slot(self):
        dataset = generate_synthetic(3000, "linear", noise_fraction=0.02,
                                     seed=17)
        database = Database()
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.BTREE)
        calls = 0
        original = database.planner._plan_fresh

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        database.planner._plan_fresh = counting
        for _ in range(10):
            database.explain(QueryRequest.of(
                table_name, RangePredicate("colC", 0.0, 100_000.0)))
            database.explain(QueryRequest.of(
                table_name, RangePredicate("colC", 5_000.0, 5_000.0)))
        assert calls == 2  # one fresh plan per shape, the rest replayed

    def test_scan_plan_skips_revalidation(self, planner_db):
        """A scan already applied every predicate; candidates == results."""
        database, table_name = planner_db
        planned = database.execute(QueryRequest.of(
            table_name, RangePredicate("colA", 0.0, 100.0)
        ))
        assert planned.plan.is_full_scan
        assert planned.breakdown.candidates == planned.breakdown.results

    def test_breakdown_phases_are_charged(self, planner_db):
        database, table_name = planner_db
        planned = database.execute(QueryRequest.of(
            table_name, [RangePredicate("colC", 0.0, 100_000.0)]
        ))
        assert planned.breakdown.lookups == 1
        assert planned.breakdown.candidates >= planned.breakdown.results
        assert planned.breakdown.results == len(planned)
        assert planned.breakdown.host_index_seconds > 0

    def test_single_predicate_request_names_its_index(self, planner_db):
        database, table_name = planner_db
        predicate = RangePredicate("colC", 0.0, 100_000.0)
        result = database.execute(QueryRequest.of(table_name, predicate))
        assert result.used_index == "idx_colC_btree"
        expected = brute_force(database, table_name, [predicate])
        assert np.array_equal(result.locations, expected)

    def test_intersection_under_logical_pointers(self):
        """Selective predicates on two indexed columns intersect tid sets."""
        dataset = generate_synthetic(20_000, "linear", noise_fraction=0.01,
                                     seed=14)
        database = Database(pointer_scheme=PointerScheme.LOGICAL)
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_colC", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        # Each predicate alone matches far more rows than the conjunction
        # (the colB window covers only the top of the colC window's image),
        # so probing the host index costs less than resolving the Hermit
        # candidates it strips — the regime where intersection pays.
        predicates = [RangePredicate("colC", 100_000.0, 150_000.0),
                      RangePredicate("colB", 280_000.0, 360_000.0)]
        plan = database.explain(QueryRequest.of(table_name, predicates))
        assert len(plan.paths) == 2  # Hermit driver + host-index intersect
        path_kinds = {path.entry.method for path in plan.paths}
        assert path_kinds == {IndexMethod.HERMIT, IndexMethod.BTREE}
        planned = database.execute(QueryRequest.of(table_name, predicates))
        expected = brute_force(database, table_name, predicates)
        assert np.array_equal(planned.locations, expected)


def pair_database(scheme: PointerScheme, rows: int = 600,
                  seed: int = 21) -> Database:
    """Two uncorrelated columns ``a`` and ``m``, each with its own B+-tree:
    a two-column conjunction is answered from single-column indexes."""
    rng = np.random.default_rng(seed)
    database = Database(pointer_scheme=scheme)
    database.create_table(numeric_schema("t", ["pk", "a", "m", "payload"],
                                         primary_key="pk"))
    database.insert_many("t", {
        "pk": np.arange(rows, dtype=np.float64),
        "a": rng.uniform(0.0, 100.0, size=rows),
        "m": rng.uniform(0.0, 100.0, size=rows),
        "payload": rng.uniform(size=rows),
    })
    database.create_index("idx_a", "t", "a", method=IndexMethod.BTREE)
    database.create_index("idx_m", "t", "m", method=IndexMethod.BTREE)
    return database


SCHEMES = pytest.mark.parametrize(
    "scheme", [PointerScheme.PHYSICAL, PointerScheme.LOGICAL],
    ids=lambda scheme: scheme.value)


class TestTwoColumnPairs:
    """A conjunction over two columns needs no two-column index: the
    planner drives with one column's B+-tree and intersects or filters by
    the other's."""

    PAIR = [RangePredicate("a", 10.0, 30.0), RangePredicate("m", 40.0, 60.0)]

    def test_pair_plans_over_single_column_btrees(self):
        database = pair_database(PointerScheme.PHYSICAL)
        plan = database.explain(QueryRequest.of("t", self.PAIR))
        assert plan.paths and all(
            isinstance(path, MechanismPath)
            and path.entry.method is IndexMethod.BTREE for path in plan.paths)
        assert plan.used_index in {"idx_a", "idx_m"}
        # Either column alone is served by its own index.
        for predicate, index in zip(self.PAIR, ("idx_a", "idx_m")):
            assert database.explain(QueryRequest.of(
                "t", predicate)).used_index == index

    @SCHEMES
    def test_pair_stays_exact_across_dml(self, scheme):
        database = pair_database(scheme, rows=50)
        request = QueryRequest.of("t", [RangePredicate("a", 19.0, 21.0),
                                        RangePredicate("m", 49.0, 51.0)])
        moved = QueryRequest.of("t", [RangePredicate("a", 19.0, 21.0),
                                      RangePredicate("m", 89.0, 91.0)])

        def check() -> None:
            for each in (request, moved):
                assert np.array_equal(
                    database.execute(each).locations,
                    brute_force(database, "t", each.query.predicates))

        location = database.insert("t", {"pk": 1000.0, "a": 20.0, "m": 50.0,
                                         "payload": 0.5})
        assert int(location) in database.execute(request).locations
        check()
        database.update("t", location, {"m": 90.0})
        assert int(location) not in database.execute(request).locations
        assert int(location) in database.execute(moved).locations
        check()
        database.delete("t", location)
        assert int(location) not in database.execute(moved).locations
        check()

    def test_insert_many_rows_answer_the_pair(self):
        database = pair_database(PointerScheme.PHYSICAL, rows=50)
        locations = database.insert_many("t", {
            "pk": [2000.0, 2001.0], "a": [25.0, 26.0], "m": [55.0, 56.0],
            "payload": [0.1, 0.2]})
        predicates = [RangePredicate("a", 24.0, 27.0),
                      RangePredicate("m", 54.0, 57.0)]
        found = database.execute(QueryRequest.of("t", predicates)).locations
        assert set(np.asarray(locations).tolist()) <= set(found.tolist())
        assert np.array_equal(found, brute_force(database, "t", predicates))

    @SCHEMES
    def test_pair_batches_equal_single_requests(self, scheme):
        database = pair_database(scheme)
        requests = [
            QueryRequest.of("t", [RangePredicate("a", low, low + 20.0),
                                  RangePredicate("m", low + 10.0, low + 40.0)])
            for low in (0.0, 25.0, 50.0, 75.0)]
        batched = database.execute_many(requests)
        for result, request in zip(batched, requests):
            assert_locations(result, database.execute(request).locations)
            assert np.array_equal(
                result.locations,
                brute_force(database, "t", request.query.predicates))

    @SCHEMES
    def test_random_pairs_match_brute_force(self, scheme):
        database = pair_database(scheme, rows=400, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(40):
            a_low, m_low = rng.uniform(-10.0, 100.0, size=2)
            a_width, m_width = rng.uniform(0.0, 60.0, size=2)
            predicates = [RangePredicate("a", a_low, a_low + a_width),
                          RangePredicate("m", m_low, m_low + m_width)]
            planned = database.execute(QueryRequest.of("t", predicates))
            assert np.array_equal(planned.locations,
                                  brute_force(database, "t", predicates))


class TestPathsAreTemplates:
    """A plan-cache hit hands out the cached path objects themselves and the
    ranges travel with each call, so one template must answer interleaved
    requests — a path that kept per-request state would return the previous
    request's rows."""

    ROWS = 600

    def build(self, scheme):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 100.0, self.ROWS)
        database = Database(pointer_scheme=scheme)
        database.create_table(numeric_schema(
            "t", ["pk", "a", "h", "b", "m", "free"], primary_key="pk"))
        database.insert_many("t", {
            "pk": np.arange(self.ROWS, dtype=np.float64) + 1_000.0,
            "a": a, "h": 2.0 * a + 10.0,
            "b": rng.uniform(0.0, 100.0, self.ROWS),
            "m": rng.uniform(0.0, 100.0, self.ROWS),
            "free": rng.uniform(0.0, 100.0, self.ROWS),
        })
        database.create_index("idx_a", "t", "a")
        database.create_index("idx_h", "t", "h", method=IndexMethod.HERMIT,
                              host_column="a")
        stored = float(a[3]), float(a[7])
        # shape -> (path class, two requests of one selectivity bucket)
        shapes = {
            "btree": (MechanismPath, [[("a", 10.0, 15.0)],
                                      [("a", 40.0, 45.0)]]),
            "point_and_range": (MechanismPath, [
                [("a", stored[0], stored[0])],
                [("a", stored[1], np.nextafter(stored[1], np.inf))]]),
            "hermit": (MechanismPath, [[("h", 30.0, 40.0)],
                                       [("h", 110.0, 120.0)]]),
            "scan": (FullScanPath, [
                [("free", 10.0, 40.0), ("m", 20.0, 60.0)],
                [("free", 50.0, 80.0), ("m", 30.0, 70.0)]]),
        }
        return database, {
            name: (kind, [[RangePredicate(*bounds) for bounds in request]
                          for request in requests])
            for name, (kind, requests) in shapes.items()
        }

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_one_template_serves_interleaved_requests(self, scheme):
        database, shapes = self.build(scheme)
        table = database.table("t")
        for name, (kind, (first, second)) in shapes.items():
            interleaved = [first, second, first, second, second, first]
            requests = [QueryRequest.of("t", predicates)
                        for predicates in interleaved]
            singles = [database.execute(request) for request in requests]
            batch = database.execute_many(requests)
            template = singles[0].plan.paths[0]
            assert isinstance(template, kind), name
            assert len({id(result.plan) for result in singles}) == 6, name
            assert len({id(result.plan) for result in batch}) == 1, name
            for predicates, single, batched in zip(interleaved, singles,
                                                   batch):
                assert single.plan.paths[0] is template, name
                assert batched.plan.paths[0] is template, name
                expected = scan_locations(table, *predicates)
                assert_locations(single, expected)
                assert_locations(batched, expected)
            assert scan_locations(table, *first), name
            assert (scan_locations(table, *first)
                    != scan_locations(table, *second)), name

    def test_paths_store_no_range(self, planner_db):
        database, table_name = planner_db
        entry = database.catalog.indexes_on_column(table_name, "colC")[0]
        stats = database.catalog.column_stats(table_name, "colC")
        paths = [MechanismPath(entry, KeyRange(0.0, 10_000.0), stats),
                 FullScanPath(database.table(table_name), ["colC", "colD"])]
        assert paths[1].columns == ("colC", "colD")
        assert paths[1].produces_locations
        for path in paths:
            assert not [value for value in vars(path).values()
                        if isinstance(value, (KeyRange, dict))]


class TestPointFastPath:
    """Single-column point probes replay off the (table, column) pointer."""

    def build(self, rows: int = 3000, seed: int = 21):
        dataset = generate_synthetic(rows, "linear", noise_fraction=0.02,
                                     seed=seed)
        database = Database()
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.BTREE)
        return database, table_name

    def test_point_probes_skip_stats_after_first_plan(self):
        database, table_name = self.build()
        stats_calls = 0
        original = database.catalog.column_stats

        def counting(*args, **kwargs):
            nonlocal stats_calls
            stats_calls += 1
            return original(*args, **kwargs)

        database.catalog.column_stats = counting
        database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 10.0, 10.0)))
        after_first = stats_calls
        for value in (20.0, 30.0, -1e9, 40.0):  # out-of-domain too
            database.explain(QueryRequest.of(
                table_name, RangePredicate("colC", value, value)))
        # The fast path bypasses the stats lookup entirely.
        assert stats_calls == after_first

    def test_fast_path_binds_each_new_point(self):
        database, table_name = self.build()
        first = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 100.0, 100.0)))
        replayed = database.explain(QueryRequest.of(
            table_name, RangePredicate("colC", 250.0, 250.0)))
        assert replayed.merged == {"colC": KeyRange(250.0, 250.0)}
        assert replayed.paths[0] is first.paths[0]

    def test_fast_path_results_match_brute_force(self):
        database, table_name = self.build()
        values = database.table(table_name).project(["colC"])[1][:5]
        for value in values:
            predicate = RangePredicate("colC", float(value), float(value))
            planned = database.execute(QueryRequest.of(table_name, predicate))
            expected = brute_force(database, table_name, [predicate])
            assert np.array_equal(planned.locations, expected)

    def test_ddl_invalidates_point_pointer(self):
        database, table_name = self.build()
        predicate = RangePredicate("colC", 50.0, 50.0)
        assert database.explain(QueryRequest.of(
            table_name, predicate)).used_index == "idx_c"
        database.create_index("idx_c_new", table_name, "colC",
                              method=IndexMethod.BTREE)
        database.drop_index(table_name, "idx_c")
        # The stale pointer must not replay the dropped index's plan.
        assert database.explain(QueryRequest.of(
            table_name, predicate)).used_index == "idx_c_new"


class TestEpochDriftInvalidation:
    def test_cached_plan_repriced_after_epoch_drift(self):
        """Enough committed write epochs force a replan, even when the
        row-count window alone would keep the cached plan fresh."""
        from repro.engine.planner import _MAX_EPOCH_DRIFT

        dataset = generate_synthetic(3000, "linear", noise_fraction=0.02,
                                     seed=22)
        database = Database()
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.BTREE)
        predicate = RangePredicate("colC", 0.0, 50_000.0)
        database.explain(QueryRequest.of(table_name, predicate))
        before = database.planner.cache_info().misses

        # Single-row inserts: negligible row-count change, one epoch each.
        table = database.table(table_name)
        start_pk = int(table.project(["colA"])[1].max()) + 1
        for offset in range(_MAX_EPOCH_DRIFT + 1):
            database.insert_many(table_name, {
                "colA": np.array([float(start_pk + offset)]),
                "colB": np.array([1.0]),
                "colC": np.array([1.0]),
                "colD": np.array([0.5]),
            })

        database.explain(QueryRequest.of(table_name, predicate))
        assert database.planner.cache_info().misses == before + 1

    def test_fresh_within_drift_bound(self):
        dataset = generate_synthetic(3000, "linear", noise_fraction=0.02,
                                     seed=23)
        database = Database()
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.BTREE)
        predicate = RangePredicate("colC", 0.0, 50_000.0)
        database.explain(QueryRequest.of(table_name, predicate))
        before = database.planner.cache_info().misses
        database.insert_many(table_name, {
            "colA": np.array([99_999_999.0]), "colB": np.array([1.0]),
            "colC": np.array([1.0]), "colD": np.array([0.5]),
        })
        database.explain(QueryRequest.of(table_name, predicate))
        assert database.planner.cache_info().misses == before  # still cached
