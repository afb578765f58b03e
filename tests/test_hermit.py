"""Unit tests for the Hermit index mechanism (4-step lookup + maintenance)."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core.config import TRSTreeConfig
from repro.core.hermit import HermitIndex
from repro.core.lookup import LookupBreakdown, finish_lookup_segmented
from repro.core.trs_tree import TRSTree
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import QueryError
from repro.index import ordered
from repro.index.base import KeyRanges
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.storage.table import Table


def make_table(count=2000, seed=0, noise_fraction=0.02):
    """Table with pk / host / target / payload where host ~ 2*target + 5."""
    rng = np.random.default_rng(seed)
    schema = numeric_schema("t", ["pk", "host", "target", "payload"],
                            primary_key="pk")
    table = Table(schema)
    target = rng.uniform(0.0, 1000.0, size=count)
    host = 2.0 * target + 5.0
    noisy = rng.random(count) < noise_fraction
    host = np.where(noisy, host + rng.uniform(500.0, 1500.0, size=count), host)
    table.insert_many(table.validate_insert_many({
        "pk": np.arange(count, dtype=np.float64),
        "host": host,
        "target": target,
        "payload": rng.uniform(size=count),
    }))
    return table


def build_hermit(table, pointer_scheme=PointerScheme.PHYSICAL, config=None):
    """Construct host and primary indexes plus a Hermit index on ``target``."""
    config = config if config is not None else TRSTreeConfig()
    primary = OrderedIndex()
    host_index = OrderedIndex()
    slots, pks, hosts = table.project(["pk", "host"])
    primary.insert_many(pks, slots)
    host_index.insert_many(
        hosts, slots if pointer_scheme is PointerScheme.PHYSICAL else pks)
    hermit = HermitIndex(table, "target", "host", host_index,
                         primary_index=primary, pointer_scheme=pointer_scheme,
                         config=config)
    hermit.build()
    return hermit


def make_database(count=2000, pointer_scheme=PointerScheme.PHYSICAL):
    """``make_table``'s rows in a database: a complete index ``idx_host``
    and a Hermit index ``idx_target`` on ``target``."""
    source = make_table(count=count)
    database = Database(pointer_scheme=pointer_scheme)
    database.create_table(source.schema)
    database.insert_many("t", {name: source.column_array(name)
                               for name in ("pk", "host", "target",
                                            "payload")})
    database.create_index("idx_host", "t", "host")
    database.create_index("idx_target", "t", "target",
                          method=IndexMethod.HERMIT, host_column="host")
    return database


def lookup(database, low, high):
    """The Hermit index's answer to ``low <= target <= high``."""
    return database.query_with("t", "idx_target",
                               RangePredicate("target", low, high))


def brute_force(table, low, high):
    slots, targets = table.project(["target"])
    mask = (targets >= low) & (targets <= high)
    return {int(s) for s in slots[mask]}


class TestLookup:
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_range_lookup_is_exact(self, scheme):
        database = make_database(pointer_scheme=scheme)
        result = lookup(database, 200.0, 400.0)
        assert set(result.locations) == brute_force(database.table("t"),
                                                    200.0, 400.0)

    def test_point_lookup_is_exact(self):
        database = make_database()
        table = database.table("t")
        value = float(table.value(5, "target"))
        result = lookup(database, value, value)
        assert 5 in result.locations
        assert set(result.locations) == brute_force(table, value, value)

    def test_breakdown_phases_populated(self):
        database = make_database(pointer_scheme=PointerScheme.LOGICAL)
        breakdown = lookup(database, 100.0, 300.0).breakdown
        assert breakdown.lookups == 1
        assert breakdown.trs_seconds >= 0
        assert breakdown.host_index_seconds > 0
        assert breakdown.primary_index_seconds > 0
        assert breakdown.base_table_seconds > 0
        assert breakdown.candidates >= breakdown.results
        fractions = breakdown.fractions()
        assert pytest.approx(sum(fractions.values()), abs=1e-9) == 1.0

    def test_physical_scheme_skips_primary_index(self):
        database = make_database(pointer_scheme=PointerScheme.PHYSICAL)
        result = lookup(database, 100.0, 300.0)
        assert result.breakdown.primary_index_seconds == 0.0

    def test_cumulative_breakdown_accumulates(self):
        database = make_database()
        hermit = database.catalog.table_entry("t").indexes[
            "idx_target"].mechanism
        first = lookup(database, 0.0, 100.0)
        database.query_with_many("t", "idx_target", [
            RangePredicate("target", 100.0, 200.0),
            RangePredicate("target", 300.0, 400.0)])
        assert hermit.cumulative.lookups == 3
        assert hermit.cumulative.candidates > first.breakdown.candidates

    def test_false_positive_ratio_bounded(self):
        database = make_database()
        result = lookup(database, 0.0, 1000.0)
        # A full-domain range query has almost no false positives.
        assert result.breakdown.false_positive_ratio < 0.2

    def test_empty_range(self):
        result = lookup(make_database(), 5000.0, 6000.0)
        assert len(result.locations) == 0

    def test_logical_scheme_requires_primary_index(self):
        table = make_table(count=50)
        with pytest.raises(QueryError):
            HermitIndex(table, "target", "host", OrderedIndex(),
                        pointer_scheme=PointerScheme.LOGICAL)


class TestMaintenance:
    def test_insert_then_lookup_finds_new_row(self):
        database = make_database()
        location = database.insert("t", {
            "pk": 99999.0, "host": 2.0 * 555.5 + 5.0, "target": 555.5,
            "payload": 0.0})
        assert location in lookup(database, 555.0, 556.0).locations

    def test_insert_outlier_then_lookup(self):
        database = make_database()
        location = database.insert("t", {
            "pk": 99998.0, "host": 1e9, "target": 777.7, "payload": 0.0})
        assert location in lookup(database, 777.0, 778.0).locations

    def test_delete_removes_row_from_results(self):
        database = make_database()
        victim = 17
        row = database.table("t").fetch(victim)
        database.delete("t", victim)
        result = lookup(database, row["target"] - 1.0, row["target"] + 1.0)
        assert victim not in result.locations

    def test_update_target_value(self):
        database = make_database()
        location = 23
        old_row = database.table("t").fetch(location)
        database.update("t", location, {"target": 999.0})
        assert location in lookup(database, 998.0, 1000.0).locations
        assert location not in lookup(
            database, old_row["target"] - 0.5,
            old_row["target"] + 0.5).locations

    def test_reorganize_after_bulk_inserts(self):
        database = make_database(count=1500)
        hermit = database.catalog.table_entry("t").indexes[
            "idx_target"].mechanism
        rng = np.random.default_rng(5)
        for i in range(600):
            database.insert("t", {
                "pk": 50_000.0 + i, "host": float(rng.uniform(0, 3000)),
                "target": float(rng.uniform(0, 1000)), "payload": 0.0})
        assert hermit.pending_reorganizations > 0
        assert database.reorganize() > 0
        assert hermit.pending_reorganizations == 0
        result = lookup(database, 0.0, 1000.0)
        assert set(result.locations) == brute_force(database.table("t"),
                                                    0.0, 1000.0)


class TestMemory:
    def test_hermit_is_much_smaller_than_complete_index(self):
        table = make_table(count=5000)
        hermit = build_hermit(table)
        complete = OrderedIndex()
        slots, targets = table.project(["target"])
        complete.insert_many(targets, slots)
        assert hermit.memory_bytes() < complete.memory_bytes() / 5


class TestLookupBreakdown:
    def test_merge(self):
        first = LookupBreakdown(trs_seconds=1.0, candidates=10, results=8, lookups=1)
        second = LookupBreakdown(host_index_seconds=2.0, candidates=5, results=5,
                                 lookups=1)
        first.merge(second)
        assert first.total_seconds == pytest.approx(3.0)
        assert first.candidates == 15
        assert first.results == 13
        assert first.lookups == 2
        assert first.false_positive_ratio == pytest.approx(2 / 15)

    def test_empty_breakdown_ratios(self):
        empty = LookupBreakdown()
        assert empty.false_positive_ratio == 0.0
        assert empty.total_seconds == 0.0
        assert set(empty.fractions()) == {"TRS-Tree", "Host Index",
                                          "Primary Index", "Base Table"}


class TestCountedBatchWork:
    """The work of a physical range batch, counted rather than timed."""

    COUNTED = {"bincount", "lexsort", "clip", "interleave_segments"}

    def test_one_narrow_sort_per_batch(self):
        """Candidates and validation of a 256-range batch with outliers sort
        once: the outlier tids join the candidates' one sort, the sort's
        keys decode without a ``bincount``, and validation takes no clip.
        The TRS-Tree translation, its own layer, is not counted."""
        table = make_table(count=20_000, seed=3)
        hermit = build_hermit(table)
        lows = np.random.default_rng(4).uniform(0.0, 990.0, size=256)
        ranges = KeyRanges(lows, lows + 5.0)
        assert hermit.trs_tree.lookup_many(ranges).outlier_tids.size > 0
        translation = TRSTree.lookup_many.__code__
        calls = Counter()
        depth = 0

        def profile(frame, event, arg):
            nonlocal depth
            if frame.f_code is translation and event in ("call", "return"):
                depth += 1 if event == "call" else -1
            elif depth:
                return
            elif event == "c_call" and isinstance(
                    getattr(arg, "__self__", None), np.ndarray):
                calls[f"ndarray.{arg.__name__}"] += 1
            elif event == "call" and frame.f_code.co_name in self.COUNTED:
                calls[frame.f_code.co_name] += 1

        breakdown = LookupBreakdown()
        sys.setprofile(profile)
        try:
            tids, offsets = hermit.candidate_tids_many(ranges, breakdown)
            locations, offsets = finish_lookup_segmented(
                table, {"target": ranges}, tids, offsets,
                PointerScheme.PHYSICAL, None, breakdown, unique=True,
                ordered=hermit.sorted_candidates)
        finally:
            sys.setprofile(None)

        assert calls["ndarray.sort"] == 1
        assert calls["ndarray.clip"] == 0
        assert not self.COUNTED & set(calls), calls
        for position, low in enumerate(lows):
            got = locations[offsets[position]:offsets[position + 1]]
            assert got.tolist() == sorted(brute_force(table, low, low + 5.0))

    def test_one_band_per_query_translation_sorts_nothing(self):
        """Point queries each overlap one leaf and so emit one band: the
        batched translation takes no ``lexsort`` of its (query, band)
        pairs, no coalesce and no ``bincount`` for its offsets, and still
        emits the scalar lookups' host bounds bit for bit."""
        tree = build_hermit(make_table(count=20_000, seed=3)).trs_tree
        points = np.random.default_rng(5).uniform(0.0, 1000.0, size=256)
        ranges = KeyRanges(points, points)
        calls = Counter()

        def profile(frame, event, arg):
            if event == "c_call":
                calls[getattr(arg, "__name__", "")] += 1
            elif event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            batch = tree.lookup_many(ranges)
        finally:
            sys.setprofile(None)

        assert batch.ranges_per_query().tolist() == [1] * points.size
        assert not {"lexsort", "bincount", "coalesce_sorted_ranges",
                    "running_segment_max"} & set(calls), calls
        for position, point in enumerate(ranges):
            scalar = tree.lookup(point).host_ranges
            assert [(r.low, r.high) for r in scalar] == [
                (r.low, r.high) for r in batch.host_ranges_for(position)]


class TestCountedSingleRequestWork:
    """The work of one ``Database.execute``, counted rather than timed.

    Python-level calls (``call`` events) and C-level calls (``c_call``
    events) of one request on a logical-pointer Hermit table, the median
    over a stream: the plan cache's periodic replan and the requests whose
    translation finds outlier tids sit above it.  Before every layer of the
    single pipeline was cut down to its own work the medians on this table
    were 62 / 52 per point and 80 / 67 per range; each ceiling is a quarter
    below.
    """

    CEILINGS = {"point": (46, 39), "range": (60, 50)}

    def median_calls(self, database, requests) -> tuple[float, float]:
        python_calls, c_calls = [], []
        for request in requests:
            calls = Counter()

            def profile(frame, event, arg):
                calls[event] += 1

            sys.setprofile(profile)
            try:
                database.execute(request)
            finally:
                sys.setprofile(None)
            python_calls.append(calls["call"])
            c_calls.append(calls["c_call"])
        return float(np.median(python_calls)), float(np.median(c_calls))

    @pytest.mark.parametrize("kind", ["point", "range"])
    def test_calls_per_request(self, kind):
        database = make_database(count=20_000,
                                 pointer_scheme=PointerScheme.LOGICAL)
        rng = np.random.default_rng(11)
        if kind == "point":
            targets = database.table("t").project(["target"])[1]
            requests = [QueryRequest.point("t", "target", float(value))
                        for value in rng.choice(targets, 300)]
        else:
            requests = [QueryRequest.range("t", "target", low, low + 1.0)
                        for low in rng.uniform(0.0, 990.0, 300).tolist()]
        for request in requests[:20]:
            database.execute(request)
        assert database.explain(requests[0]).used_index == "idx_target"
        python_calls, c_calls = self.median_calls(database, requests[20:])
        python_ceiling, c_ceiling = self.CEILINGS[kind]
        assert python_calls <= python_ceiling, python_calls
        assert c_calls <= c_ceiling, c_calls


class TestCountedReadAfterWrite:
    """A batch read right after a write, counted rather than timed.

    On the e2e schema (four columns, a B+-tree on ``colB`` that hosts
    Hermit on ``colC``; 20k rows, physical pointers) a 500-row
    ``insert_many`` leaves a record in the host index, the primary index
    and the outlier buffer.  The 256-range ``execute_many`` after it reads
    each index's run beside its record: it folds nothing, splices nothing,
    and its allocation peak exceeds that of the same batch on the folded
    indexes by less than a quarter of one copy of the host index's run.
    (The batch's own answers, ~5k locations in 256 result objects, take
    more than that quarter, so the peak is compared with the folded read.)
    """

    ROWS = 20_000

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_read_after_a_write_folds_nothing(self, monkeypatch):
        rng = np.random.default_rng(12)
        database = Database()
        database.create_table(numeric_schema(
            "t", ["colA", "colB", "colC", "colD"], primary_key="colA"))

        def rows(first: int, count: int) -> dict:
            target = rng.uniform(0.0, 1000.0, count)
            host = 2.0 * target + 10.0
            off = rng.random(count) < 0.02
            host[off] += rng.uniform(500.0, 1500.0, int(off.sum()))
            return {"colA": np.arange(first, first + count, dtype=np.float64),
                    "colB": host, "colC": target,
                    "colD": rng.uniform(size=count)}

        def requests() -> list:
            return [QueryRequest.range("t", "colC", low, low + 1.0)
                    for low in rng.uniform(0.0, 999.0, 256).tolist()]

        database.insert_many("t", rows(0, self.ROWS))
        database.create_index("idx_colB", "t", "colB")
        database.create_index("idx_colC", "t", "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        database.execute_many(requests())
        database.insert_many("t", rows(self.ROWS, 500))
        entry = database.catalog.table_entry("t")
        host = entry.indexes["idx_colB"].mechanism.index
        indexes = [entry.primary_index, host,
                   entry.indexes["idx_colC"].mechanism.trs_tree._outliers]
        assert all(index._state.inserts.keys.size for index in indexes)
        batch = requests()

        calls = Counter()
        fold, fold_inserts = OrderedIndex._fold, ordered._fold_inserts

        def counting_fold(index, *args):
            calls["fold"] += 1
            return fold(index, *args)

        def counting_fold_inserts(*args):
            calls["fold_inserts"] += 1
            return fold_inserts(*args)

        with monkeypatch.context() as patch:
            patch.setattr(OrderedIndex, "_fold", counting_fold)
            patch.setattr(ordered, "_fold_inserts", counting_fold_inserts)
            results, peak = self.traced_peak(
                lambda: database.execute_many(batch))
        assert calls == Counter()

        run = host._state.run
        run_bytes = run.keys.nbytes + run.tids.nbytes
        for index in indexes:
            index._fold()
        folded, folded_peak = self.traced_peak(
            lambda: database.execute_many(batch))
        assert peak < folded_peak + run_bytes / 4, (peak, folded_peak)
        slots, targets = database.table("t").project(["colC"])
        for request, result, again in zip(batch, results, folded):
            (predicate,) = request.predicates
            assert result.locations.tolist() == again.locations.tolist() \
                == sorted(slots[(targets >= predicate.low)
                                & (targets <= predicate.high)].tolist())
