"""Tests for the composite (two-column) index and its planner integration.

Correctness of :class:`~repro.index.composite.CompositeIndex` is pinned
against a brute-force scan over random entry sets; the
:class:`~repro.baselines.secondary.CompositeSecondaryIndex` adapter is exercised
through the database facade (DML maintenance, both pointer schemes) and as a
planner access path covering a two-column conjunctive predicate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.secondary import CompositeSecondaryIndex
from repro.engine.access_path import CompositePath
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate, conjunction
from repro.errors import KeyNotFoundError, QueryError
from repro.index.base import KeyRange
from repro.index.composite import CompositeIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

entries_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    ),
    min_size=0, max_size=80,
)

bounds = st.tuples(
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
)


def brute_force(entries, leading_range: KeyRange,
                second_range: KeyRange) -> list[int]:
    return sorted(
        tid for tid, (leading, second) in enumerate(entries)
        if leading_range.contains(leading) and second_range.contains(second)
    )


class TestCompositeIndex:
    @SETTINGS
    @given(entries=entries_strategy, leading=bounds, second=bounds)
    def test_range_search_matches_brute_force(self, entries, leading, second):
        index = CompositeIndex()
        for tid, (lead, sec) in enumerate(entries):
            index.insert_many([lead], [sec], [tid])
        leading_range = KeyRange(*leading)
        second_range = KeyRange(*second)
        expected = brute_force(entries, leading_range, second_range)
        found = index.range_search_array(leading_range, second_range)
        assert sorted(found.tolist()) == expected

    @SETTINGS
    @given(entries=entries_strategy)
    def test_bulk_load_equals_scalar_inserts(self, entries):
        scalar = CompositeIndex()
        bulk = CompositeIndex()
        for tid, (lead, sec) in enumerate(entries):
            scalar.insert_many([lead], [sec], [tid])
        bulk.insert_many([lead for lead, _ in entries],
                         [sec for _, sec in entries], range(len(entries)))
        assert list(bulk.items()) == list(scalar.items())
        assert bulk.num_entries == scalar.num_entries

    @SETTINGS
    @given(base=entries_strategy, batch=entries_strategy)
    def test_insert_many_equals_scalar_loop(self, base, batch):
        scalar = CompositeIndex()
        batched = CompositeIndex()
        for tid, (lead, sec) in enumerate(base):
            scalar.insert_many([lead], [sec], [tid])
            batched.insert_many([lead], [sec], [tid])
        for tid, (lead, sec) in enumerate(batch):
            scalar.insert_many([lead], [sec], [1000 + tid])
        batched.insert_many([lead for lead, _ in batch],
                            [sec for _, sec in batch],
                            list(range(1000, 1000 + len(batch))))
        assert list(batched.items()) == list(scalar.items())

    def test_delete(self):
        index = CompositeIndex()
        index.insert_many([1.0], [2.0], [7])
        index.delete_many([1.0], [2.0], [7])
        assert index.num_entries == 0
        with pytest.raises(KeyNotFoundError):
            index.delete_many([1.0], [2.0], [7])

    def test_memory_accounting(self):
        index = CompositeIndex()
        for tid in range(100):
            index.insert_many([float(tid)], [float(-tid)], [tid])
        assert index.memory_bytes() > 0


def _make_database(scheme=PointerScheme.PHYSICAL, rows=600, seed=21):
    rng = np.random.default_rng(seed)
    schema = numeric_schema("t", ["pk", "a", "m", "payload"], primary_key="pk")
    database = Database(pointer_scheme=scheme)
    database.create_table(schema)
    database.insert_many("t", {
        "pk": np.arange(rows, dtype=np.float64),
        "a": rng.uniform(0.0, 100.0, size=rows),
        "m": rng.uniform(0.0, 100.0, size=rows),
        "payload": rng.uniform(size=rows),
    })
    database.create_composite_index("idx_am", "t", "a", "m")
    return database


def expected_slots(database, a_low, a_high, m_low, m_high) -> np.ndarray:
    table = database.table("t")
    slots, a_values, m_values = table.project(["a", "m"])
    mask = ((a_values >= a_low) & (a_values <= a_high)
            & (m_values >= m_low) & (m_values <= m_high))
    return np.sort(slots[mask])


class TestCompositeSecondaryIndex:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_planner_uses_composite_for_the_pair(self, scheme):
        database = _make_database(scheme)
        query = conjunction(RangePredicate("a", 10.0, 30.0),
                            RangePredicate("m", 40.0, 60.0))
        plan = database.explain(QueryRequest.of("t", query))
        assert plan.used_index == "idx_am"
        assert isinstance(plan.paths[0], CompositePath)
        planned = database.execute(QueryRequest.of("t", query))
        assert np.array_equal(planned.locations,
                              expected_slots(database, 10.0, 30.0, 40.0, 60.0))

    def test_single_predicate_does_not_use_composite(self):
        database = _make_database()
        plan = database.explain(QueryRequest.of(
            "t", RangePredicate("a", 10.0, 30.0)))
        assert plan.used_index is None  # composite cannot serve one column

    def test_query_with_rejects_composite(self):
        database = _make_database(rows=20)
        with pytest.raises(QueryError, match="composite"):
            database.query_with("t", "idx_am", RangePredicate("a", 0.0, 50.0))

    def test_dml_maintains_composite(self):
        database = _make_database(rows=50)
        location = database.insert("t", {"pk": 1000.0, "a": 20.0, "m": 50.0,
                                         "payload": 0.5})
        request = QueryRequest.of("t", [RangePredicate("a", 19.0, 21.0),
                                        RangePredicate("m", 49.0, 51.0)])
        assert int(location) in database.execute(request).locations

        database.update("t", location, {"m": 90.0})
        assert int(location) not in database.execute(request).locations
        moved = QueryRequest.of("t", [RangePredicate("a", 19.0, 21.0),
                                      RangePredicate("m", 89.0, 91.0)])
        assert int(location) in database.execute(moved).locations

        database.delete("t", location)
        assert int(location) not in database.execute(moved).locations

    def test_insert_many_maintains_composite(self):
        database = _make_database(rows=50)
        locations = database.insert_many("t", {
            "pk": [2000.0, 2001.0],
            "a": [25.0, 26.0],
            "m": [55.0, 56.0],
            "payload": [0.1, 0.2],
        })
        query = conjunction(RangePredicate("a", 24.0, 27.0),
                            RangePredicate("m", 54.0, 57.0))
        found = database.execute(QueryRequest.of("t", query)).locations
        assert set(locations) <= set(found.tolist())

    def test_rejects_duplicate_columns(self):
        database = _make_database(rows=10)
        with pytest.raises(QueryError):
            database.create_composite_index("idx_bad", "t", "a", "a")

    def test_logical_pointers_need_a_primary_index(self):
        database = _make_database(rows=10)
        with pytest.raises(QueryError, match="primary index"):
            CompositeSecondaryIndex(database.table("t"), "a", "m",
                                    pointer_scheme=PointerScheme.LOGICAL)

    def test_memory_report_includes_composite(self):
        database = _make_database(rows=100)
        report = database.memory_report("t")
        assert report.components["new_indexes"] > 0
