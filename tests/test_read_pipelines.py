"""One lookup tail, two pipelines: the read surface is pinned.

The engine has exactly two read pipelines — a single-request one ending in
``repro.core.lookup.finish_lookup`` and a segmented batch one ending in
``finish_lookup_segmented``.  Everything that reads goes through one of
them: a mechanism's standalone ``lookup_range`` / ``lookup_range_many``,
``Database.query_with`` (forced index), ``execute`` and ``execute_many``.
That they all answer alike — ranges, point probes, conjunctions and float
edge bounds, per mechanism and pointer scheme, with deleted rows, outliers,
pending index writes and cache hits present — is checked against the model by
the state machine in ``test_engine_oracle``.

``TestReadSurfaceIsPinned`` lists the public callables of ``Index``, the
mechanism base, ``Database``, ``ShardedDatabase``, ``Server`` and the
TRS-Tree's classes and asserts each set exactly, so a future read path has
to replace one of these rather than land beside it.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.baselines.correlation_maps import CorrelationMap
from repro.baselines.secondary import (
    BaselineSecondaryIndex,
    CompositeSecondaryIndex,
    SortedColumnSecondaryIndex,
)
from repro.core.hermit import HermitIndex
from repro.core.lookup import SecondaryMechanism
from repro.core.regression import LeafModel
from repro.core.trs_tree import LeafTable, TRSTree
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.index.base import Index
from repro.index.composite import CompositeIndex
from repro.index.hash_index import HashIndex
from repro.index.ordered import OrderedIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.serving import Server
from repro.sharding import ShardedDatabase

SRC = Path(__file__).resolve().parents[1] / "src"


def test_forced_read_feeds_the_mechanism_like_a_planned_one(
        linear_database):
    """``query_with`` observes false positives exactly like ``execute``."""
    database, table_name = linear_database
    mechanism = database.catalog.table_entry(table_name).indexes[
        "idx_colC"].mechanism
    predicate = RangePredicate("colC", 300_000.0, 340_000.0)
    forced = database.query_with(table_name, "idx_colC", predicate)
    after_forced = mechanism.cumulative.candidates
    assert after_forced == forced.breakdown.candidates > 0
    database.execute(QueryRequest.of(table_name, predicate))
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
# No separate load: insert_many into an empty index is the load.
INDEX_OTHER = {"insert", "delete", "insert_many", "memory_bytes"}

MECHANISM_READS = {"candidate_tids", "candidate_tids_many", "lookup_range",
                   "lookup_range_many", "lookup_point"}
MECHANISM_OTHER = {"reset_breakdown"}

DATABASE_READS = {"execute", "execute_many", "explain", "query_with"}
DATABASE_OTHER = {
    "create_table", "create_index", "create_composite_index", "drop_index",
    "insert", "insert_many", "delete", "update", "reorganize",
    "attach_durability", "checkpoint", "flush_wal", "durability_stats", "close",
    "result_cache_info", "result_cache_clear", "planner_cache_info",
    "planner_cache_stats", "planner_cache_clear", "memory_report", "table",
    "check_invariants",
}


SHARDED_READS = {"execute", "execute_many"}
SHARDED_OTHER = {
    "create_table", "create_index", "create_composite_index", "drop_index",
    "insert", "insert_many", "delete", "update", "fetch", "reorganize",
    "planner_cache_stats", "planner_cache_info", "result_cache_info",
    "result_cache_clear", "num_rows", "shard_row_counts", "close",
}
SERVER_SURFACE = {"submit", "submit_async", "query", "stats", "close"}

# The TRS-Tree is one leaf table plus one tree-wide outlier index, read
# through exactly two methods; only reorganization (and build) replaces
# rows of the table.
TRS_READS = {"lookup", "lookup_many"}
TRS_OTHER = {
    "build", "insert", "insert_many", "delete", "update",
    "reorganize", "reorganize_children", "estimated_fp_ratio",
    "memory_bytes", "check_invariants",
}
LEAF_TABLE = {"replace"}
LEAF_MODEL = {"predict", "covers", "covers_many", "host_range"}


class TestReadSurfaceIsPinned:
    def test_trs_tree_surface(self):
        assert public_callables(TRSTree) == TRS_READS | TRS_OTHER
        assert public_callables(LeafTable) == LEAF_TABLE
        # The outlier buffer is an ordered index like any other.
        assert type(TRSTree()._outliers) is OrderedIndex
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
        # The batch read forms have a default on the base; the ordered
        # index answers its four read entry points from one pair of arrays
        # (one body per probe kind) and adds no fifth.
        assert {name for name in INDEX_READS
                if name not in Index.__abstractmethods__
                and name not in ("search", "range_search")} == INDEX_BATCH_READS
        assert {name for name in vars(OrderedIndex)
                if "search" in name} == {
            "search_many", "range_search_array",
            "range_search_segmented", "search_many_segmented"}
        # Beyond the base surface: one iterator and the TRS-Tree's
        # subtree-rebuild write, no read.
        assert public_callables(OrderedIndex) == (
            public_callables(Index) | {"items", "delete_range"})
        # One structure, configured by nothing: the method picks the size
        # formula (the mechanism class create_index builds), not a
        # constructor argument.
        assert not inspect.signature(OrderedIndex).parameters
        for complete in (BaselineSecondaryIndex, SortedColumnSecondaryIndex):
            assert list(inspect.signature(complete).parameters) == [
                "table", "target_column", "primary_index", "pointer_scheme"]
        # The list conveniences are defined once and never overridden.
        for index_class in (OrderedIndex, HashIndex, PagedBPlusTree):
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
                   "rebind", "DEFAULT_COST_MODEL", "DEFAULT_SIZE_MODEL",
                   # retired by the one ordered index
                   "SortedColumnIndex", "OutlierBuffer", "FlatView",
                   "worth_using", "charge(", "_RANGE_PROBE_COST", "REP001")
        # Whole words: the disk simulator keeps its IOCostModel, the
        # paged index its PagedBPlusTree.
        retired_words = re.compile(r"\b(CostModel|SizeModel|BPlusTree)\b")
        for path in SRC.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in retired:
                assert name not in text, (name, str(path))
            assert not retired_words.search(text), str(path)

    def test_single_valued_parameters_stay_constants(self):
        """No callable under ``src/repro`` takes a ``cost_model``,
        ``size_model``, ``advisor``, ``workers`` or ``host_index_kind``
        parameter — each only ever had one value, or picked between
        structures that are one now, so each is a constant.  The exceptions
        are the disk simulator's ``DiskManager(cost_model: IOCostModel)``,
        which ``tests/test_storage_disk.py`` sets, and ``node_capacity``
        where nodes still exist: the paged B+-tree, the composite index and
        the B+-tree size formula."""
        banned = {"cost_model", "size_model", "advisor", "workers",
                  "host_index_kind", "node_capacity"}
        allowed = {("repro.storage.disk", "DiskManager.__init__",
                    "cost_model"),
                   ("repro.storage.memory", "btree_bytes", "node_capacity"),
                   ("repro.index.paged_bptree", "PagedBPlusTree.__init__",
                    "node_capacity"),
                   ("repro.index.composite", "CompositeIndex.__init__",
                    "node_capacity")}
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
