"""One lookup tail, two pipelines: every read entry point agrees, and the
read surface is pinned.

The engine has exactly two read pipelines — a single-request one ending in
``repro.core.lookup.finish_lookup`` and a segmented batch one ending in
``finish_lookup_segmented``.  Everything that reads goes through one of
them: a mechanism's standalone ``lookup_range`` / ``lookup_range_many``,
``Database.query_with`` (forced index), ``execute`` and ``execute_many``.

* ``TestEveryEntryPointAgrees`` drives all five entry points with ranges,
  point probes and conjunctions per mechanism (and per pair of rival
  indexes on one column) and pointer scheme — deleted rows and out-of-band
  outliers present — and requires identical sorted int64 locations from
  the planner's plan, every manual plan, a mixed ``execute_many`` batch
  and the reference scan, *and* identical ``breakdown.candidates`` /
  ``results`` where one index answers alone; then again over the
  float edge cases (infinite bounds, a range wider than any bucket walk,
  both zeros, a one-ulp range) with the result cache on, so every answer
  is checked as a miss and as a hit.
* ``TestReadSurfaceIsPinned`` lists the public callables of ``Index``, the
  mechanism base, ``Database``, ``ShardedDatabase``, ``Server`` and the
  TRS-Tree's classes and asserts each set exactly, so a future read path
  has to replace one of these rather than land beside it.

Deleted tests whose behaviour these (or a named sibling) now cover:
``test_serving.TestQueryWithDeprecation`` (``query_with`` == ``execute``;
the warning itself is gone) → ``TestEveryEntryPointAgrees``;
``test_engine.TestExecutorHelpers`` (``full_scan`` / ``choose_index``,
both deleted) → ``test_engine.TestDatabase.test_query_without_index_falls_back_to_scan``
and ``TestEveryEntryPointAgrees`` on ``rivals`` (the planner prefers the
complete index); ``test_bench_smoke`` hot-path / paged races (raced code
deleted) → ``test_bench_smoke.TestPipelinesAgreeOnWorkloads`` and
``test_read_path_paged``; ``test_bench_smoke.TestPlannerSmokeRun`` /
``TestQueryManySmokeRun`` (the retired planner and batched-query ratio
suites at tiny scale: planner plan == every manual plan, ``execute_many``
== the ``execute`` loop) → ``TestEveryEntryPointAgrees``, which asks the
engine the same questions without a timing harness.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.correlation_maps import CorrelationMap
from repro.baselines.secondary import (
    BaselineSecondaryIndex,
    CompositeSecondaryIndex,
)
from repro.cache.result_cache import ResultCacheConfig
from repro.core.hermit import HermitIndex
from repro.core.lookup import SecondaryMechanism
from repro.core.outliers import OutlierBuffer
from repro.core.regression import LeafModel
from repro.core.trs_tree import LeafTable, TRSTree
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.index.base import Index
from repro.index.bptree import BPlusTree
from repro.index.composite import CompositeIndex
from repro.index.flat_view import FlatView
from repro.index.hash_index import HashIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.index.sorted_column import SortedColumnIndex
from repro.serving import Server
from repro.sharding import ShardedDatabase
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

from reference import assert_locations, scan_locations

SRC = Path(__file__).resolve().parents[1] / "src"
ROWS = 600
SCHEMES = [PointerScheme.PHYSICAL, PointerScheme.LOGICAL]


INF = float("inf")
ULP_VALUE = 512.25


def build_database(scheme: PointerScheme, method: str,
                   result_cache: ResultCacheConfig | None = None) -> Database:
    """(pk, host, target): correlated, with outliers, then partly deleted.

    The target column holds both zeros and two values one ulp apart (at
    slots no delete below touches)."""
    rng = np.random.default_rng(7)
    target = rng.uniform(0.0, 1_000.0, size=ROWS)
    target[1:5] = [0.0, -0.0, ULP_VALUE, np.nextafter(ULP_VALUE, INF)]
    host = 2.0 * target + 10.0
    # Out-of-band outliers: far outside any leaf's confidence band.
    host[::25] += rng.uniform(500.0, 900.0, size=host[::25].size)
    database = Database(pointer_scheme=scheme, result_cache=result_cache)
    database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                         primary_key="pk"))
    locations = database.insert_many("t", {
        "pk": np.arange(ROWS, dtype=np.float64) + 1_000.0,
        "host": host, "target": target,
    })
    database.create_index("idx_host", "t", "host", method=IndexMethod.BTREE)
    if method in ("hermit", "rivals"):
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.HERMIT, host_column="host")
        if method == "rivals":
            database.create_index("idx_target_btree", "t", "target",
                                  method=IndexMethod.BTREE)
    elif method == "cm":
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.CORRELATION_MAP,
                              host_column="host",
                              cm_target_bucket_width=25.0,
                              cm_host_bucket_width=50.0)
    else:
        database.create_index(
            "idx_target", "t", "target",
            method=(IndexMethod.SORTED_COLUMN if method == "sorted"
                    else IndexMethod.BTREE))
    for location in locations[::7]:
        database.delete("t", location)
    return database


# name -> (low, high, rows the reference scan must find at least)
EDGE_RANGES = {
    "open_low": (-INF, 120.0, 6),
    "open_high": (880.0, INF, 6),
    "everything": (-INF, INF, 500),
    "plus_inf_point": (INF, INF, 0),
    "minus_inf_point": (-INF, -INF, 0),
    "wider_than_any_bucket_walk": (-1e300, 1e300, 500),
    "zero": (0.0, 0.0, 2),
    "negative_zero": (-0.0, -0.0, 2),
    "one_value": (ULP_VALUE, ULP_VALUE, 1),
    "one_ulp": (ULP_VALUE, np.nextafter(ULP_VALUE, INF), 2),
}
METHODS = ["hermit", "btree", "sorted", "cm"]


# Request classes of one mixed batch: ranges, point probes on stored values
# and two-column conjunctions (host = 2 * target + 10, so each host window
# keeps about half of its target window), spanning several plan groups.
REQUESTS = [
    (RangePredicate("target", 300.0, 340.0),),
    (RangePredicate("target", 0.0, 45.0),),
    (RangePredicate("target", 930.0, 1_000.0),),
    (RangePredicate("target", ULP_VALUE, ULP_VALUE),),
    (RangePredicate("target", 0.0, 0.0),),
    (RangePredicate("target", 300.0, 340.0),
     RangePredicate("host", 650.0, 1_000.0)),
    (RangePredicate("target", 600.0, 700.0),
     RangePredicate("host", 1_310.0, 2_000.0)),
]


class TestEveryEntryPointAgrees:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("method", METHODS + ["rivals"])
    def test_locations_and_counts_agree(self, method, scheme):
        """Per request: every forced (manual) plan == the planner's plan ==
        the reference scan, through ``execute`` and inside one mixed
        ``execute_many`` batch; for a single predicate the mechanism's own
        lookups too, with identical candidate / result counts."""
        database = build_database(scheme, method)
        table = database.table("t")
        assert table.num_slots > table.num_rows          # deleted rows present
        indexes = database.catalog.table_entry("t").indexes
        target_indexes = [name for name in indexes
                          if name.startswith("idx_target")]
        if method in ("hermit", "rivals"):
            trs_tree = indexes["idx_target"].mechanism.trs_tree
            assert trs_tree.num_outliers > 0             # outliers present

        requests = [QueryRequest.of("t", predicates)
                    for predicates in REQUESTS]
        batch = database.execute_many(requests)
        for predicates, request, many in zip(REQUESTS, requests, batch):
            expected = scan_locations(table, *predicates)
            assert expected, predicates
            one = database.execute(request)
            answers = [one, many]
            for name in target_indexes:
                # A manual plan: one forced index read, post-filtered by
                # hand on the predicates the index does not cover.
                forced = database.query_with("t", name, predicates[0])
                assert forced.used_index == name
                if len(predicates) == 1:
                    answers.append(forced)
                else:
                    assert np.intersect1d(
                        forced.locations,
                        scan_locations(table, *predicates[1:]),
                    ).tolist() == expected
            for result in answers:
                assert_locations(result, expected)
            if len(predicates) > 1:
                continue
            if method == "rivals":
                # The complete index has no false positives to validate.
                assert one.used_index == many.used_index == "idx_target_btree"
                continue

            assert one.used_index == many.used_index == "idx_target"
            low, high = predicates[0].low, predicates[0].high
            mechanism = indexes["idx_target"].mechanism
            single = mechanism.lookup_range(low, high)
            batched = mechanism.lookup_range_many([(low, high)])
            for found in (single.locations, batched.locations_per_query[0]):
                assert isinstance(found, np.ndarray)
                assert found.dtype == np.int64
                assert found.tolist() == expected
            # (``many`` carries its plan group's counts, not its own.)
            alone = database.execute_many([request])[0]
            counts = {(result.breakdown.candidates, result.breakdown.results)
                      for result in (single, batched, forced, one, alone)}
            assert len(counts) == 1, counts
            candidates, results = counts.pop()
            assert results == len(expected)
            assert candidates >= results
            if method in ("btree", "sorted"):
                assert candidates == results             # complete index

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("method", METHODS)
    def test_float_edge_cases(self, method, scheme):
        """Every entry point answers every edge range like the reference
        scan — as a cache miss and, on the repeat, as a cache hit."""
        database = build_database(
            scheme, method, result_cache=ResultCacheConfig(admission=False))
        table = database.table("t")
        mechanism = database.catalog.table_entry("t").indexes[
            "idx_target"].mechanism
        answers = {}
        for name, (low, high, at_least) in EDGE_RANGES.items():
            predicate = RangePredicate("target", low, high)
            request = QueryRequest.of("t", predicate)
            expected = scan_locations(table, predicate)
            assert len(expected) >= at_least, name
            answers[name] = expected

            single = mechanism.lookup_range(low, high)
            batch = mechanism.lookup_range_many([(low, high)])
            assert single.locations.tolist() == expected, name
            assert batch.locations_per_query[0].tolist() == expected, name
            assert_locations(database.query_with("t", "idx_target",
                                                 predicate), expected)
            first, again = database.execute(request), database.execute(request)
            batched = database.execute_many([request])[0]
            # -0.0 == 0.0: the two zero predicates share one cache entry,
            # so the second of them never misses.
            assert (first.plan is None) == (name == "negative_zero")
            assert again.plan is None and batched.plan is None
            for result in (first, again, batched):
                assert_locations(result, expected)

        # One coalesced batch of all of them, hits and all.
        requests = [QueryRequest.range("t", "target", low, high)
                    for low, high, _ in EDGE_RANGES.values()]
        for result, expected in zip(database.execute_many(requests),
                                    answers.values()):
            assert_locations(result, expected)
        # ... and the same batch as misses.
        database.result_cache_clear()
        for result, expected in zip(database.execute_many(requests),
                                    answers.values()):
            assert result.plan is not None
            assert_locations(result, expected)
        assert answers["zero"] == answers["negative_zero"]
        assert len(answers["one_ulp"]) == len(answers["one_value"]) + 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("stale", [False, True], ids=["current", "stale"])
    def test_execute_answers_alike_on_current_and_stale_views(self, stale,
                                                              scheme):
        """``execute`` probes the host and primary B+-trees' flat views
        while they are current and walks the trees while a per-row write
        has left them stale; the reference scan cannot tell."""
        database = build_database(scheme, "hermit")
        entry = database.catalog.table_entry("t")
        trees = [entry.primary_index,
                 entry.indexes["idx_target"].mechanism.host_index]
        assert all(isinstance(tree, BPlusTree) for tree in trees)
        for tree in trees:
            tree._flattened()
        before = len(scan_locations(entry.table, *REQUESTS[0]))
        for number, predicates in enumerate(REQUESTS * 3):
            if stale:
                # Lands inside a request's window, on the band or far off.
                target = 300.0 + 2.0 * number
                database.insert("t", {
                    "pk": 5_000.0 + number, "target": target,
                    "host": 2.0 * target + (10.0 if number % 2 else 700.0)})
            for tree in trees:
                view = tree._flat_view
                assert view._arrays is not None
                assert bool(view._added_keys) == stale
            assert_locations(database.execute(QueryRequest.of("t", predicates)),
                             scan_locations(entry.table, *predicates))
        # The rows written in between are part of the answers.
        after = len(scan_locations(entry.table, *REQUESTS[0]))
        assert (after > before) == stale

    def test_forced_read_feeds_the_mechanism_like_a_planned_one(self):
        """``query_with`` observes false positives exactly like ``execute``."""
        database = build_database(PointerScheme.PHYSICAL, "hermit")
        mechanism = database.catalog.table_entry("t").indexes[
            "idx_target"].mechanism
        predicate = RangePredicate("target", 300.0, 340.0)
        forced = database.query_with("t", "idx_target", predicate)
        after_forced = mechanism.cumulative.candidates
        assert after_forced == forced.breakdown.candidates > 0
        database.execute(QueryRequest.of("t", predicate))
        assert mechanism.cumulative.candidates == 2 * after_forced


def public_callables(cls) -> set[str]:
    return {name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))}


INDEX_READS = {
    "search_many", "range_search_array",                 # abstract primitives
    "search", "range_search",                            # .tolist() conveniences
    "range_search_many_array", "range_search_segmented",
    "search_many_segmented",
}
INDEX_BATCH_READS = {"range_search_many_array", "range_search_segmented",
                     "search_many_segmented"}
# What the owner of a flat view tells it (a load hands its sorted run over),
# and what a probe asks of it.
FLAT_VIEW = {"record_insert", "record_insert_many", "record_delete", "drop",
             "adopt", "worth_using", "charge", "arrays"}
# No separate load: insert_many into an empty index is the load.
INDEX_OTHER = {"insert", "delete", "insert_many", "memory_bytes"}

MECHANISM_READS = {"candidate_tids", "candidate_tids_many", "lookup_range",
                   "lookup_range_many", "lookup_point"}
MECHANISM_OTHER = {"reset_breakdown"}

DATABASE_READS = {"execute", "execute_many", "explain", "query_with"}
DATABASE_OTHER = {
    "create_table", "create_index", "create_composite_index", "drop_index",
    "insert", "insert_many", "delete", "update",
    "attach_durability", "checkpoint", "flush_wal", "durability_stats", "close",
    "result_cache_info", "result_cache_clear", "planner_cache_info",
    "planner_cache_stats", "planner_cache_clear", "memory_report", "table",
}


SHARDED_READS = {"execute", "execute_many"}
SHARDED_OTHER = {
    "create_table", "create_index", "create_composite_index", "drop_index",
    "insert", "insert_many", "delete", "update", "fetch",
    "planner_cache_stats", "planner_cache_info", "result_cache_info",
    "result_cache_clear", "num_rows", "shard_row_counts", "close",
}
SERVER_SURFACE = {"submit", "submit_async", "query", "stats", "close"}

# The TRS-Tree is one leaf table plus one tree-wide outlier buffer, read
# through exactly two methods; only reorganization (and build) replaces
# rows of the table.
TRS_READS = {"lookup", "lookup_many"}
TRS_OTHER = {
    "build", "insert", "insert_many", "delete", "update",
    "reorganize", "reorganize_children", "estimated_fp_ratio",
    "memory_bytes", "check_invariants",
}
LEAF_TABLE = {"replace"}
OUTLIER_BUFFER = {"add", "add_many", "remove", "buckets"}
LEAF_MODEL = {"predict", "covers", "covers_many", "host_range"}


class TestReadSurfaceIsPinned:
    def test_trs_tree_surface(self):
        assert public_callables(TRSTree) == TRS_READS | TRS_OTHER
        assert public_callables(LeafTable) == LEAF_TABLE
        assert public_callables(OutlierBuffer) == OUTLIER_BUFFER
        # No pointer tree: the node module and its classes are gone.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.node")
        assert not {name for name in repro.core.__all__ if "Node" in name}
        assert {name for name in vars(LeafModel)
                if not name.startswith("_")
                and callable(getattr(LeafModel, name))} == LEAF_MODEL
        # One definition of each half of the leaf-table format, and no
        # tree-walking read: the lookup section of trs_tree.py has neither
        # a queue nor a stack.
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in (SRC / "repro" / "core").glob("*.py")}
        for name, owner in (("LeafTable", "trs_tree.py"),
                            ("ModelTable", "regression.py")):
            assert [file for file, text in sources.items()
                    if f"class {name}" in text] == [owner]
        trs = sources["trs_tree.py"]
        lookup_section = trs[trs.index("-- lookup\n"):
                             trs.index("-- maintenance\n")]
        assert "def lookup(" in lookup_section
        assert "def lookup_many(" in lookup_section
        assert "deque" not in lookup_section and "stack" not in lookup_section

    def test_index_surface(self):
        assert public_callables(Index) == INDEX_READS | INDEX_OTHER
        assert Index.__abstractmethods__ == {
            "search_many", "range_search_array",
            "insert", "delete", "memory_bytes", "num_entries"}
        # The batch read forms have a default on the base; the B+-tree
        # answers its four read entry points from one flat view (two bodies
        # per probe kind, private) and adds no fifth.
        assert {name for name in INDEX_READS
                if name not in Index.__abstractmethods__
                and name not in ("search", "range_search")} == INDEX_BATCH_READS
        assert {name for name in vars(BPlusTree)
                if "search" in name} == {
            "search_many", "range_search_array",
            "range_search_segmented", "search_many_segmented"}
        assert public_callables(FlatView) == FLAT_VIEW
        # The list conveniences are defined once and never overridden.
        for index_class in (BPlusTree, SortedColumnIndex, HashIndex,
                            PagedBPlusTree):
            assert "search" not in vars(index_class)
            assert "range_search" not in vars(index_class)
            extra = public_callables(index_class) - public_callables(Index)
            assert not {name for name in extra
                        if "search" in name or "load" in name}, extra
        assert {name for name in public_callables(CompositeIndex)
                if "search" in name} == {"range_search_array"}

    def test_mechanism_surface(self):
        assert (public_callables(SecondaryMechanism)
                == MECHANISM_READS | MECHANISM_OTHER)
        for mechanism_class in (HermitIndex, BaselineSecondaryIndex,
                                CorrelationMap):
            assert issubclass(mechanism_class, SecondaryMechanism)
            own = set(vars(mechanism_class))
            # A mechanism implements candidate generation only.
            assert {"candidate_tids", "candidate_tids_many",
                    "estimate_candidates"} <= own
            assert not own & {"lookup_range", "lookup_range_many",
                              "lookup_point", "reset_breakdown", "_tid_for",
                              "_tids_for_batch", "_tids_for_slots"}
            extra = (public_callables(mechanism_class)
                     - public_callables(SecondaryMechanism))
            assert not {name for name in extra
                        if name.startswith(("lookup", "candidate", "search",
                                            "query"))}, extra

        # The composite mechanism reuses the pointer-scheme plumbing too.
        assert issubclass(CompositeSecondaryIndex, SecondaryMechanism)
        assert not set(vars(CompositeSecondaryIndex)) & {
            "_tid_for", "_tids_for_batch", "_tids_for_slots"}

    def test_database_surface(self):
        assert public_callables(Database) == DATABASE_READS | DATABASE_OTHER

    def test_sharded_and_server_surfaces(self):
        assert (public_callables(ShardedDatabase)
                == SHARDED_READS | SHARDED_OTHER)
        assert public_callables(Server) == SERVER_SURFACE

    def test_one_definition_of_each_lookup_under_src(self):
        sources = {path: path.read_text(encoding="utf-8")
                   for path in SRC.rglob("*.py")}
        for name in ("lookup_range", "lookup_range_many", "lookup_point"):
            definitions = [str(path) for path, text in sources.items()
                           if re.search(rf"def {name}\(", text)]
            assert len(definitions) == 1, (name, definitions)
        for name in ("search", "range_search"):
            definitions = [path.name for path, text in sources.items()
                           if re.search(rf"def {name}\(", text)]
            assert definitions == ["base.py"], (name, definitions)

    def test_retired_read_paths_stay_retired(self):
        retired = ("lookup_range_scalar", "_resolve_locations(",
                   "finish_batch_lookup", "resolve_tids_many",
                   "execute_with_index", "def full_scan", "choose_index",
                   "_query_with", "range_search_many(",
                   # retired by the one-request-in, one-result-out surface
                   "query_many", "query_conjunctive", "PlannedQueryResult",
                   "from_planned", "_as_conjunctive",
                   # retired by the flat TRS-Tree
                   "overlap_spans", "children_overlapping",
                   "outlier_tid_array", "host_range_many",
                   # retired by load == insert_many into an empty index
                   "bulk_load", "load_arrays",
                   # retired by range-free path templates and constant
                   # size / cost accounting
                   "rebind", "DEFAULT_COST_MODEL", "DEFAULT_SIZE_MODEL")
        # Whole words: the disk simulator keeps its IOCostModel.
        retired_words = re.compile(r"\b(CostModel|SizeModel)\b")
        for path in SRC.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in retired:
                assert name not in text, (name, str(path))
            assert not retired_words.search(text), str(path)

    def test_single_valued_parameters_stay_constants(self):
        """No callable under ``src/repro`` takes a ``cost_model``,
        ``size_model``, ``advisor`` or ``workers`` parameter — each only
        ever had one value, so each is a constant.  The one exception is
        the disk simulator's ``DiskManager(cost_model: IOCostModel)``,
        which ``tests/test_storage_disk.py`` sets."""
        banned = {"cost_model", "size_model", "advisor", "workers"}
        allowed = {("repro.storage.disk", "DiskManager.__init__",
                    "cost_model")}
        found = set()
        checked = 0
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            for name, member in vars(module).items():
                if getattr(member, "__module__", None) != info.name:
                    continue
                callables = {name: member}
                if inspect.isclass(member):
                    callables = {
                        f"{name}.{attribute}": value
                        for attribute, value in vars(member).items()
                        if inspect.isfunction(value)
                    }
                elif not inspect.isfunction(member):
                    continue
                for qualified, function in callables.items():
                    checked += 1
                    for parameter in inspect.signature(function).parameters:
                        if parameter in banned:
                            found.add((info.name, qualified, parameter))
        assert checked > 1_000
        assert found == allowed

    def test_validation_has_one_call_site_per_pipeline(self):
        """Outside the table itself, each validation kernel is called from
        exactly one function: its pipeline's tail."""
        calls: dict[str, list[str]] = {"filter_in_range(": [],
                                       "in_range_mask(": []}
        for path in SRC.rglob("*.py"):
            if path.name == "table.py":
                continue
            text = path.read_text(encoding="utf-8")
            for kernel, sites in calls.items():
                sites.extend([path.name] * text.count("." + kernel))
        assert calls == {"filter_in_range(": ["lookup.py"],
                         "in_range_mask(": ["lookup.py"]}
