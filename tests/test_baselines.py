"""Unit tests for the baseline secondary index and Correlation Maps."""

import numpy as np
import pytest

from repro.baselines.correlation_maps import CorrelationMap
from repro.baselines.secondary import BaselineSecondaryIndex
from repro.core.lookup import LookupBreakdown
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import ConfigurationError, QueryError
from repro.index.base import KeyRange
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.storage.table import Table


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    table = Table(numeric_schema("t", ["pk", "host", "target"], primary_key="pk"))
    target = rng.uniform(0.0, 1000.0, size=1000)
    noise = np.where(rng.random(1000) < 0.05,
                     rng.uniform(300.0, 800.0, size=1000), 0.0)
    table.insert_many(table.validate_insert_many({
        "pk": np.arange(1000, dtype=np.float64),
        "host": 2.0 * target + noise,
        "target": target,
    }))
    return table


def primary_and_host(table, scheme):
    primary = OrderedIndex()
    host = OrderedIndex()
    slots, pks, hosts = table.project(["pk", "host"])
    primary.insert_many(pks, slots)
    tids = slots if scheme is PointerScheme.PHYSICAL else pks
    host.insert_many(hosts, tids)
    return primary, host


def make_database(table, scheme=PointerScheme.PHYSICAL, cm_widths=None):
    """The fixture's rows in a database: a complete index ``idx_host``, the
    baseline ``idx_baseline`` on ``target`` and, given ``(target, host)``
    bucket widths, a Correlation Map ``idx_cm`` on it."""
    database = Database(pointer_scheme=scheme)
    database.create_table(table.schema)
    database.insert_many(table.schema.name, {
        name: table.column_array(name) for name in ("pk", "host", "target")})
    name = table.schema.name
    database.create_index("idx_host", name, "host")
    database.create_index("idx_baseline", name, "target")
    if cm_widths is not None:
        database.create_index(
            "idx_cm", name, "target", method=IndexMethod.CORRELATION_MAP,
            host_column="host", cm_target_bucket_width=cm_widths[0],
            cm_host_bucket_width=cm_widths[1])
    return database


def lookup(database, index_name, low, high, table_name="t"):
    """``index_name``'s answer to ``low <= target <= high``."""
    return database.query_with(table_name, index_name,
                               RangePredicate("target", low, high))


def mechanism(database, index_name, table_name="t"):
    return database.catalog.table_entry(table_name).indexes[
        index_name].mechanism


def brute_force(table, low, high):
    slots, targets = table.project(["target"])
    return {int(s) for s in slots[(targets >= low) & (targets <= high)]}


class TestBaselineSecondaryIndex:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_lookup_exact(self, table, scheme):
        database = make_database(table, scheme)
        assert set(lookup(database, "idx_baseline", 100.0, 200.0).locations) \
            == brute_force(table, 100.0, 200.0)

    def test_baseline_has_no_false_positives(self, table):
        result = lookup(make_database(table), "idx_baseline", 0.0, 500.0)
        assert result.breakdown.false_positive_ratio == 0.0

    def test_maintenance(self, table):
        database = make_database(table)
        location = database.insert("t", {"pk": 5000.0, "host": 1.0,
                                         "target": 555.25})
        assert location in lookup(database, "idx_baseline",
                                  555.25, 555.25).locations
        database.update("t", location, {"target": 111.0})
        assert location in lookup(database, "idx_baseline",
                                  111.0, 111.0).locations
        assert location not in lookup(database, "idx_baseline",
                                      555.25, 555.25).locations
        database.delete("t", location)
        assert location not in lookup(database, "idx_baseline",
                                      111.0, 111.0).locations
        database.check_invariants()

    def test_memory_tracks_complete_index(self, table):
        primary, _ = primary_and_host(table, PointerScheme.PHYSICAL)
        baseline = BaselineSecondaryIndex(table, "target", primary_index=primary)
        baseline.build()
        assert baseline.memory_bytes() == baseline.index.memory_bytes()
        assert baseline.index.num_entries == table.num_rows

    def test_logical_scheme_requires_primary(self, table):
        with pytest.raises(QueryError):
            BaselineSecondaryIndex(table, "target",
                                   pointer_scheme=PointerScheme.LOGICAL)

    def test_point_lookup(self, table):
        value = float(table.value(3, "target"))
        assert 3 in lookup(make_database(table), "idx_baseline",
                           value, value).locations


class TestCorrelationMap:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_lookup_exact(self, table, scheme):
        database = make_database(table, scheme, cm_widths=(64.0, 128.0))
        assert set(lookup(database, "idx_cm", 100.0, 300.0).locations) == \
            brute_force(table, 100.0, 300.0)

    @pytest.mark.parametrize("low, high", [
        (float("-inf"), 300.0), (300.0, float("inf")),
        (float("-inf"), float("inf")), (float("inf"), float("inf")),
        (float("-inf"), float("-inf")), (-1e300, 1e300),
    ])
    def test_wide_and_infinite_predicates(self, table, low, high):
        """The bucket walk is clamped to the buckets the mapping holds: an
        infinite bound used to raise ``OverflowError`` and a wide finite
        range walked ~1e298 empty buckets, i.e. never returned."""
        database = make_database(table, cm_widths=(64.0, 128.0))
        expected = brute_force(table, low, high)
        assert set(lookup(database, "idx_cm", low, high).locations) == expected
        batch = database.query_with_many("t", "idx_cm", [
            RangePredicate("target", low, high),
            RangePredicate("target", 100.0, 300.0)])
        assert set(batch[0].locations) == expected
        assert set(batch[1].locations) == brute_force(table, 100.0, 300.0)

    def test_smaller_buckets_use_more_memory(self, table):
        _, host = primary_and_host(table, PointerScheme.PHYSICAL)
        fine = CorrelationMap(table, "target", "host", host,
                              target_bucket_width=8.0, host_bucket_width=16.0)
        fine.build()
        coarse = CorrelationMap(table, "target", "host", host,
                                target_bucket_width=256.0,
                                host_bucket_width=512.0)
        coarse.build()
        assert fine.num_bucket_links > coarse.num_bucket_links
        assert fine.memory_bytes() > coarse.memory_bytes()

    def test_noise_inflates_cm_but_not_correctness(self, table):
        database = make_database(table, cm_widths=(32.0, 64.0))
        result = lookup(database, "idx_cm", 400.0, 420.0)
        assert set(result.locations) == brute_force(table, 400.0, 420.0)
        # Noisy tuples drag extra host buckets in, so some false positives
        # are expected — but never false negatives (checked above).
        assert result.breakdown.candidates >= result.breakdown.results

    def test_insert_extends_mapping(self, table):
        database = make_database(table, cm_widths=(64.0, 128.0))
        location = database.insert("t", {"pk": 5001.0, "host": 123456.0,
                                         "target": 999.5})
        assert location in lookup(database, "idx_cm", 999.0, 1000.0).locations
        database.check_invariants()

    def test_delete_keeps_results_correct(self, table):
        database = make_database(table, cm_widths=(64.0, 128.0))
        victim = 11
        row = table.fetch(victim)
        database.delete("t", victim)
        assert victim not in lookup(database, "idx_cm", row["target"] - 1,
                                    row["target"] + 1).locations

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    @pytest.mark.parametrize("null_hosts", [False, True])
    def test_candidates_need_no_dedup_with_duplicate_host_values(
            self, scheme, null_hosts):
        """CM's candidates skip the dedup pass: pin that none is needed.

        Many rows share one host value, host values sit exactly on bucket
        boundaries (where two closed bucket ranges touch) and the predicate
        links adjacent *and* non-adjacent host buckets.  ``_host_ranges_for``
        unions the buckets into disjoint ranges, so every row must come back
        exactly once — from both candidate generators.  Rows with a NULL
        host come from the NULL-host index, never from the host index.
        """
        hosts = np.repeat([0.0, 8.0, 16.0, 16.0, 24.0, 40.0, 48.0, 52.0], 6)
        if null_hosts:
            hosts[::7] = np.nan
        targets = np.tile([1.0, 3.0, 5.0, 7.0, 9.0, 11.0], 8)
        table = Table(numeric_schema("dup", ["pk", "host", "target"],
                                     primary_key="pk"))
        table.insert_many(table.validate_insert_many({
            "pk": np.arange(hosts.size, dtype=np.float64) + 100,
            "host": hosts, "target": targets}))
        database = make_database(table, scheme, cm_widths=(4.0, 8.0))
        cm = mechanism(database, "idx_cm", "dup")

        predicates = [KeyRange(0.0, 12.0), KeyRange(4.0, 6.0),
                      KeyRange(9.0, 9.0)]
        values, offsets = cm.candidate_tids_many(predicates, LookupBreakdown())
        batch = database.query_with_many("dup", "idx_cm", [
            RangePredicate("target", p.low, p.high) for p in predicates])
        for position, predicate in enumerate(predicates):
            single = cm.candidate_tids(predicate, LookupBreakdown())
            segment = values[offsets[position]:offsets[position + 1]]
            assert len(set(single.tolist())) == single.size
            assert sorted(single.tolist()) == sorted(segment.tolist())
            result = lookup(database, "idx_cm", predicate.low, predicate.high,
                            "dup")
            assert result.breakdown.candidates == single.size
            expected = sorted(brute_force(table, predicate.low, predicate.high))
            assert result.locations.tolist() == expected
            assert batch[position].locations.tolist() == expected
        # Every row links every host bucket here, so the widest predicate's
        # candidates are the whole table, each row once.
        assert cm.candidate_tids(predicates[0], LookupBreakdown()).size == 48

    def test_invalid_bucket_widths(self, table):
        _, host_index = primary_and_host(table, PointerScheme.PHYSICAL)
        with pytest.raises(ConfigurationError):
            CorrelationMap(table, "target", "host", host_index,
                           target_bucket_width=0.0, host_bucket_width=1.0)

    def test_logical_scheme_requires_primary(self, table):
        _, host_index = primary_and_host(table, PointerScheme.PHYSICAL)
        with pytest.raises(QueryError):
            CorrelationMap(table, "target", "host", host_index,
                           target_bucket_width=1.0, host_bucket_width=1.0,
                           pointer_scheme=PointerScheme.LOGICAL)


@pytest.mark.parametrize("scheme", list(PointerScheme))
def test_correlation_map_answers_rows_with_a_null_host(scheme):
    """1,000 rows, one with a NULL host: CM answers it through both entry
    points, keeps it across updates to and from a NULL host (no write
    half-applies), and ``check_invariants`` watches the NULL-host rows."""
    database = Database(pointer_scheme=scheme)
    database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                         primary_key="pk"))
    targets = np.arange(1_000, dtype=np.float64)
    hosts = 2.0 * targets + 1.0
    hosts[500] = np.nan
    database.insert_many("t", {"pk": targets.copy(), "host": hosts,
                               "target": targets})
    database.create_index("idx_host", "t", "host")
    database.create_index("idx_cm", "t", "target",
                          method=IndexMethod.CORRELATION_MAP,
                          host_column="host", cm_target_bucket_width=25.0,
                          cm_host_bucket_width=50.0)

    def answers(low: float, high: float) -> list[int]:
        request = QueryRequest.of("t", RangePredicate("target", low, high))
        single = database.execute(request)
        (batch,) = database.execute_many([request])
        assert single.used_index == batch.used_index == "idx_cm"
        assert np.array_equal(single.locations, batch.locations)
        return single.locations.tolist()

    assert answers(495.0, 505.0) == list(range(495, 506))
    database.update("t", 10, {"host": np.nan})
    database.check_invariants()
    assert answers(5.0, 15.0) == list(range(5, 16))
    database.update("t", 500, {"host": 1_001.0, "target": 12.5})
    database.delete("t", 10)
    database.check_invariants()
    assert answers(5.0, 15.0) == [5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 500]


@pytest.mark.parametrize("scheme", list(PointerScheme))
def test_correlation_map_files_null_host_rows_written_after_it(scheme):
    """Rows with a NULL host that arrive once CM exists — by batch and by
    single insert — are answered, and leave it when deleted."""
    database = Database(pointer_scheme=scheme)
    database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                         primary_key="pk"))
    targets = np.arange(200, dtype=np.float64)
    database.insert_many("t", {"pk": targets.copy(), "host": 3.0 * targets,
                               "target": targets})
    database.create_index("idx_host", "t", "host")
    database.create_index("idx_cm", "t", "target",
                          method=IndexMethod.CORRELATION_MAP,
                          host_column="host", cm_target_bucket_width=10.0,
                          cm_host_bucket_width=30.0)
    batch = database.insert_many("t", {"pk": [1_000.0, 1_001.0, 1_002.0],
                                       "host": [np.nan, 9.0, np.nan],
                                       "target": [4.5, 4.5, 150.5]})
    single = database.insert("t", {"pk": 1_003.0, "host": np.nan,
                                   "target": 5.5})
    database.check_invariants()
    null_row, known_row, _ = np.asarray(batch).tolist()
    request = QueryRequest.of("t", RangePredicate("target", 4.0, 6.0))
    result = database.execute(request)
    assert result.used_index == "idx_cm"
    assert result.locations.tolist() == sorted([4, 5, 6, null_row,
                                                known_row, single])
    database.delete("t", single)
    database.delete("t", null_row)
    database.check_invariants()
    (after,) = database.execute_many([request])
    assert after.locations.tolist() == sorted([4, 5, 6, known_row])
