"""One lookup tail, two pipelines: the read surface is pinned.

The engine has exactly two read pipelines — a single-request one ending in
``repro.core.lookup.finish_lookup`` and a segmented batch one ending in
``finish_lookup_segmented`` — and ``Database`` is the only way in:
``execute`` and ``query_with`` (forced index) take the first,
``execute_many`` and ``query_with_many`` the second.  A mechanism exposes
candidate generation only; nothing reads one beside the executor.  That
they all answer alike — ranges, point probes, conjunctions and float edge
bounds, per mechanism and pointer scheme, with deleted rows, outliers,
pending index writes and cache hits present — is checked against the model
by the state machine in ``test_engine_oracle``.

``TestReadSurfaceIsPinned`` lists the public callables of ``Index``, the
mechanism base, ``Database``, ``ShardedDatabase``, ``Server`` and the
TRS-Tree's classes, and the names ``repro.core.regression`` defines and
``repro.core`` exports, and asserts each set exactly, so a future read path
or leaf-model family has to replace one of these rather than land beside
it.
"""

from __future__ import annotations

import ast
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
    SortedColumnSecondaryIndex,
)
from repro.core.hermit import HermitIndex
from repro.core.lookup import SecondaryMechanism
from repro.core.regression import LeafModel
from repro.core.trs_tree import LeafTable, TRSTree
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import CatalogError, QueryError
from repro.index.base import Index
from repro.index.composite import CompositeIndex
from repro.index.ordered import OrderedIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.serving import Server
from repro.sharding import ShardedDatabase
from repro.storage.identifiers import PointerScheme
from repro.workloads.synthetic import load_synthetic

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Everything that calls the package: the retired-name sweep reads them all.
CALLERS = (SRC, ROOT / "benchmarks", ROOT / "examples")


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


def mechanism_of(database, table_name):
    return database.catalog.table_entry(table_name).indexes[
        "idx_colC"].mechanism


BATCH = [RangePredicate("colC", low, low + 20_000.0)
         for low in (0.0, 150_000.0, 300_000.0, 990_000.0, 2e6)]


def test_forced_batch_answers_like_forced_singles(linear_database):
    """``query_with_many``: one result per predicate, in order, each equal
    to its ``query_with`` answer, all from one epoch and one plan group."""
    database, table_name = linear_database
    batch = database.query_with_many(table_name, "idx_colC", BATCH)
    assert len(batch) == len(BATCH)
    for predicate, result in zip(BATCH, batch):
        single = database.query_with(table_name, "idx_colC", predicate)
        assert np.array_equal(result.locations, single.locations)
        assert result.locations.dtype == np.int64
        assert result.used_index == "idx_colC"
        assert result.group_size == len(BATCH)
        assert result.epoch == batch[0].epoch
        assert result.breakdown is batch[0].breakdown
    assert batch[0].breakdown.lookups == len(BATCH)
    assert sum(map(len, batch)) > 0
    assert database.query_with_many(table_name, "idx_colC", []) == []


def test_forced_batch_probes_once_and_feeds_the_mechanism(
        linear_database, monkeypatch):
    """One segmented candidate probe per batch, no single probe, and the
    mechanism's feedback grows by exactly the batch's candidates."""
    database, table_name = linear_database
    mechanism = mechanism_of(database, table_name)
    calls = {"candidate_tids": 0, "candidate_tids_many": 0}
    for name in calls:
        probe = getattr(mechanism, name)

        def counted(*args, _probe=probe, _name=name):
            calls[_name] += 1
            return _probe(*args)

        monkeypatch.setattr(mechanism, name, counted)
    before = mechanism.cumulative.candidates
    batch = database.query_with_many(table_name, "idx_colC", BATCH)
    assert calls == {"candidate_tids": 0, "candidate_tids_many": 1}
    grown = mechanism.cumulative.candidates - before
    assert grown == batch[0].breakdown.candidates > 0
    assert mechanism.cumulative.lookups == len(BATCH)


FORCED_METHODS = {
    "btree": {"method": IndexMethod.BTREE},
    "sorted_column": {"method": IndexMethod.SORTED_COLUMN},
    "hermit": {"method": IndexMethod.HERMIT, "host_column": "colB"},
    "correlation_map": {"method": IndexMethod.CORRELATION_MAP,
                        "host_column": "colB",
                        "cm_target_bucket_width": 20_000.0,
                        "cm_host_bucket_width": 20_000.0},
}


@pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                    PointerScheme.LOGICAL],
                         ids=lambda scheme: scheme.value)
@pytest.mark.parametrize("kind", sorted(FORCED_METHODS))
def test_every_mechanism_answers_a_forced_batch_in_one_probe(
        linear_dataset, monkeypatch, kind, scheme):
    """Each mechanism kind, under both pointer schemes: a forced batch
    makes one segmented probe, books its candidates, and answers each
    predicate like ``query_with`` and like a scan of the column."""
    database = Database(pointer_scheme=scheme)
    table_name = load_synthetic(database, linear_dataset)
    database.create_index("idx_colC", table_name, "colC",
                          **FORCED_METHODS[kind])
    mechanism = mechanism_of(database, table_name)
    calls = []
    probe = mechanism.candidate_tids_many

    def counted(*args):
        calls.append(None)
        return probe(*args)

    monkeypatch.setattr(mechanism, "candidate_tids_many", counted)
    before = mechanism.cumulative.candidates
    batch = database.query_with_many(table_name, "idx_colC", BATCH)
    assert len(calls) == 1
    assert (mechanism.cumulative.candidates - before
            == batch[0].breakdown.candidates > 0)
    column = linear_dataset.columns["colC"]
    for predicate, result in zip(BATCH, batch):
        single = database.query_with(table_name, "idx_colC", predicate)
        assert np.array_equal(result.locations, single.locations)
        expected = np.count_nonzero((column >= predicate.low)
                                    & (column <= predicate.high))
        assert len(result) == expected
    assert len(calls) == 1


def test_forced_batch_is_checked_before_any_probe(linear_database,
                                                  monkeypatch):
    """The batch raises what ``query_with`` raises — unknown index,
    composite index, a predicate on another column — and probes nothing."""
    database, table_name = linear_database
    database.create_composite_index("idx_pair", table_name, "colC", "colB")
    mechanism = mechanism_of(database, table_name)

    def refused(*args):
        raise AssertionError("probed before the batch was checked")

    monkeypatch.setattr(mechanism, "candidate_tids", refused)
    monkeypatch.setattr(mechanism, "candidate_tids_many", refused)
    wrong_column = RangePredicate("colB", 0.0, 1.0)
    for index_name, predicates, error in (
            ("idx_missing", BATCH, CatalogError),
            ("idx_pair", BATCH, QueryError),
            ("idx_colC", BATCH + [wrong_column], QueryError)):
        with pytest.raises(error) as batch_error:
            database.query_with_many(table_name, index_name, predicates)
        with pytest.raises(error) as single_error:
            database.query_with(table_name, index_name, predicates[-1])
        assert str(batch_error.value) == str(single_error.value)
    assert mechanism.cumulative.candidates == 0


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

# Candidate generation only: a mechanism is read through Database alone.
MECHANISM_READS = {"candidate_tids", "candidate_tids_many"}

DATABASE_READS = {"execute", "execute_many", "explain", "query_with",
                  "query_with_many"}
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
# The model layer: two fitted families (a line, a piecewise line), the
# outlier-only demotion, one fitter and one epsilon derivation.
REGRESSION_NAMES = {
    "LeafModel", "LinearModel", "PiecewiseLinearModel", "OutlierOnlyModel",
    "ModelTable", "slope_times", "slope_times_many", "band_range",
    "band_range_many", "quantile", "fit_linear", "fit_linear_trimmed",
    "epsilon_for_host_span", "piecewise_segment_indices", "select_leaf_model",
    "estimate_leaf_false_positives", "PIECEWISE_MANY_SEGMENTS",
    "PIECEWISE_FEW_SEGMENTS", "PIECEWISE_MIN_TUPLES_PER_SEGMENT",
    "SPLIT_GAIN_THRESHOLD", "WIDEN_BUDGET_FRACTION",
}
CORE_EXPORTS = {
    "DEFAULT_CONFIG", "HermitIndex", "LeafModel", "LinearModel",
    "LookupBreakdown", "OutlierOnlyModel", "PiecewiseLinearModel",
    "TRSLookupResult", "TRSTree", "TRSTreeConfig", "fit_linear",
    "select_leaf_model",
}


def module_level_names(path: Path) -> set[str]:
    """Public names a module defines itself (not the ones it imports)."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets
                      if isinstance(target, ast.Name)}
    return {name for name in names if not name.startswith("_")}


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

    def test_model_layer_surface(self):
        assert module_level_names(
            SRC / "repro" / "core" / "regression.py") == REGRESSION_NAMES
        assert set(repro.core.__all__) == CORE_EXPORTS

    def test_index_surface(self):
        assert public_callables(Index) == INDEX_READS | INDEX_OTHER
        assert Index.__abstractmethods__ == {
            "search_many", "range_search_array",
            "insert", "insert_many", "delete", "memory_bytes", "num_entries"}
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
        for index_class in (OrderedIndex, PagedBPlusTree):
            assert "search" not in vars(index_class)
            assert "range_search" not in vars(index_class)
            extra = public_callables(index_class) - public_callables(Index)
            assert not {name for name in extra
                        if "search" in name or "load" in name}, extra
        assert {name for name in public_callables(CompositeIndex)
                if "search" in name} == {"range_search_array"}

    def test_mechanism_surface(self):
        assert public_callables(SecondaryMechanism) == MECHANISM_READS
        # Writes arrive in batches: Database.insert is a batch of one, and
        # each update re-indexes its own row.
        for mechanism_class in (HermitIndex, BaselineSecondaryIndex,
                                SortedColumnSecondaryIndex,
                                CompositeSecondaryIndex, CorrelationMap):
            assert "insert" not in public_callables(mechanism_class)
            assert "insert_many" in vars(mechanism_class) or (
                mechanism_class is SortedColumnSecondaryIndex)
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
        # No standalone mechanism lookup: the executor is the only reader.
        for name in ("lookup_range", "lookup_range_many", "lookup_point"):
            definitions = [str(path) for path, text in sources.items()
                           if re.search(rf"def {name}\(", text)]
            assert definitions == [], (name, definitions)
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
        # paged index its PagedBPlusTree.  The names after them were
        # retired by reading mechanisms through Database alone (a word
        # start only, so lookup_range_many is caught and the TRS-Tree's
        # TRSBatchLookupResult is not).
        retired_words = re.compile(
            r"\b(CostModel|SizeModel|BPlusTree)\b"
            r"|\b(lookup_range|lookup_point|reset_breakdown|HermitLookupResult"
            r"|BatchLookupResult|build_hotpath_setup|HotpathSetup|HashIndex"
            r"|IndexStatistics"
            # retired by the two leaf-model families and one fitter
            r"|LogLinearModel|log_feature|fit_leaf_model"
            r"|epsilon_for_error_bound|LeafModelFit)")
        paths = [path for caller in CALLERS for path in caller.rglob("*.py")]
        assert len(paths) > 100
        for path in paths:
            text = path.read_text(encoding="utf-8")
            for name in retired:
                assert name not in text, (name, str(path))
            found = retired_words.search(text)
            assert found is None, (found and found.group(), str(path))

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
        assert checked > 900
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
