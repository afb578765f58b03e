"""Unit tests for the catalog, query model, executor and database facade."""

import numpy as np
import pytest

from repro.engine.catalog import Catalog, IndexEntry, IndexMethod
from repro.engine.database import Database
from repro.engine.query import (
    QueryRequest,
    QueryResult,
    RangePredicate,
    point_predicate,
)
from repro.errors import CatalogError, QueryError
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import Column, TableSchema, numeric_schema
from repro.storage.table import Table
from repro.workloads.synthetic import generate_synthetic, load_synthetic

from reference import assert_locations, scan_locations


class TestQueryModel:
    def test_range_predicate(self):
        predicate = RangePredicate("x", 1.0, 5.0)
        assert predicate.matches(3.0)
        assert not predicate.matches(6.0)
        assert not predicate.is_point
        assert predicate.key_range.low == 1.0

    def test_point_predicate(self):
        predicate = point_predicate("x", 4.0)
        assert predicate.is_point
        assert predicate.matches(4.0)

    def test_invalid_bounds(self):
        with pytest.raises(QueryError):
            RangePredicate("x", 5.0, 1.0)

    def test_query_result_len(self):
        assert len(QueryResult(locations=[1, 2, 3])) == 3


class TestCatalog:
    def make_entry(self, name="idx", column="x", method=IndexMethod.BTREE,
                   preexisting=False):
        return IndexEntry(name=name, table_name="t", column=column, method=method,
                          mechanism=object(), is_preexisting=preexisting)

    def test_add_and_lookup_table(self):
        catalog = Catalog()
        table = Table(numeric_schema("t", ["pk"], primary_key="pk"))
        catalog.add_table("t", table, OrderedIndex())
        assert catalog.table_entry("t").table is table
        assert "t" in catalog
        with pytest.raises(CatalogError):
            catalog.add_table("t", table, OrderedIndex())

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table_entry("missing")

    def test_index_registration(self):
        catalog = Catalog()
        table = Table(numeric_schema("t", ["pk", "x"], primary_key="pk"))
        catalog.add_table("t", table, OrderedIndex())
        catalog.add_index(self.make_entry())
        with pytest.raises(CatalogError):
            catalog.add_index(self.make_entry())
        assert len(catalog.indexes_on("t")) == 1
        assert catalog.indexes_on_column("t", "x")[0].name == "idx"
        assert catalog.indexed_columns("t") == ["x"]

    def test_drop_index(self):
        catalog = Catalog()
        table = Table(numeric_schema("t", ["pk", "x"], primary_key="pk"))
        catalog.add_table("t", table, OrderedIndex())
        catalog.add_index(self.make_entry())
        dropped = catalog.drop_index("t", "idx")
        assert dropped.name == "idx"
        with pytest.raises(CatalogError):
            catalog.drop_index("t", "idx")

    def test_indexed_columns_filters_methods(self):
        catalog = Catalog()
        table = Table(numeric_schema("t", ["pk", "x", "y"], primary_key="pk"))
        catalog.add_table("t", table, OrderedIndex())
        catalog.add_index(self.make_entry("i1", "x", IndexMethod.BTREE))
        catalog.add_index(self.make_entry("i2", "y", IndexMethod.HERMIT))
        assert catalog.indexed_columns("t") == ["x"]


class TestDatabase:
    @pytest.fixture
    def loaded(self):
        dataset = generate_synthetic(2000, "linear", noise_fraction=0.01, seed=5)
        database = Database()
        table_name = load_synthetic(database, dataset)
        return database, table_name, dataset

    def test_auto_index_selects_hermit_for_correlated_column(self, loaded):
        database, table_name, _ = loaded
        entry = database.create_index("idx_c", table_name, "colC",
                                      method=IndexMethod.AUTO)
        assert entry.method is IndexMethod.HERMIT
        assert entry.host_column == "colB"

    def test_auto_index_falls_back_to_btree(self, loaded):
        database, table_name, _ = loaded
        entry = database.create_index("idx_d", table_name, "colD",
                                      method=IndexMethod.AUTO)
        assert entry.method is IndexMethod.BTREE

    def test_query_uses_index_and_matches_full_scan(self, loaded):
        database, table_name, _ = loaded
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        predicate = RangePredicate("colC", 100_000.0, 200_000.0)
        indexed = database.execute(QueryRequest.of(table_name, predicate))
        scanned = scan_locations(database.table(table_name), predicate)
        assert_locations(indexed, scanned)
        assert indexed.used_index == "idx_c"

    def test_query_without_index_falls_back_to_scan(self, loaded):
        database, table_name, _ = loaded
        result = database.execute(QueryRequest.of(
            table_name, RangePredicate("colD", 0.0, 0.5)))
        assert result.used_index is None
        assert len(result.locations) > 0

    def test_query_with_named_index(self, loaded):
        database, table_name, _ = loaded
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        predicate = RangePredicate("colC", 0.0, 50_000.0)
        result = database.query_with(table_name, "idx_c", predicate)
        assert result.used_index == "idx_c"
        with pytest.raises(CatalogError):
            database.query_with(table_name, "nope", predicate)
        with pytest.raises(QueryError):
            database.query_with(table_name, "idx_c",
                                RangePredicate("colD", 0.0, 1.0))

    def test_hermit_requires_existing_host_index(self):
        dataset = generate_synthetic(500, "linear", seed=6)
        database = Database()
        schema_name = load_synthetic(database, dataset)
        database.drop_index(schema_name, "idx_colB")
        with pytest.raises(CatalogError):
            database.create_index("idx_c", schema_name, "colC",
                                  method=IndexMethod.HERMIT, host_column="colB")

    def test_correlation_map_index(self, loaded):
        database, table_name, _ = loaded
        entry = database.create_index(
            "idx_cm", table_name, "colC", method=IndexMethod.CORRELATION_MAP,
            host_column="colB", cm_target_bucket_width=4096.0,
            cm_host_bucket_width=8192.0,
        )
        assert entry.method is IndexMethod.CORRELATION_MAP
        predicate = RangePredicate("colC", 0.0, 100_000.0)
        indexed = database.query_with(table_name, "idx_cm", predicate)
        scanned = scan_locations(database.table(table_name), predicate)
        assert_locations(indexed, scanned)

    def test_correlation_map_requires_parameters(self, loaded):
        database, table_name, _ = loaded
        with pytest.raises(QueryError):
            database.create_index("idx_cm", table_name, "colC",
                                  method=IndexMethod.CORRELATION_MAP,
                                  host_column="colB")

    def test_dml_maintains_all_indexes(self, loaded):
        database, table_name, _ = loaded
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        location = database.insert(table_name, {
            "colA": 10_000_000.0, "colB": 555.0, "colC": 123_456.0, "colD": 0.5,
        })
        old = QueryRequest.range(table_name, "colC", 123_455.0, 123_457.0)
        new = QueryRequest.range(table_name, "colC", 654_320.0, 654_322.0)
        assert location in database.execute(old).locations

        database.update(table_name, location, {"colC": 654_321.0})
        assert location not in database.execute(old).locations
        assert location in database.execute(new).locations

        database.delete(table_name, location)
        assert location not in database.execute(new).locations

    def test_btree_index_serves_and_follows_its_column(self, loaded):
        database, table_name, _ = loaded
        entry = database.create_index("idx_d", table_name, "colD",
                                      method=IndexMethod.BTREE)
        assert entry.method is IndexMethod.BTREE
        predicate = RangePredicate("colD", 0.2, 0.25)
        request = QueryRequest.of(table_name, predicate)
        indexed = database.execute(request)
        assert_locations(indexed, scan_locations(database.table(table_name),
                                                 predicate))
        assert indexed.used_index == "idx_d"
        location = database.insert(table_name, {
            "colA": 20_000_000.0, "colB": 5.0, "colC": 1.0, "colD": 0.21,
        })
        assert location in database.execute(request).locations
        database.update(table_name, location, {"colD": 0.9})
        assert location not in database.execute(request).locations
        assert_locations(database.execute(request),
                         scan_locations(database.table(table_name),
                                        predicate))

    def test_preexisting_btree_serves_as_hermit_host(self, loaded):
        database, table_name, _ = loaded
        database.drop_index(table_name, "idx_colB")
        database.create_index("idx_colB_again", table_name, "colB",
                              method=IndexMethod.BTREE, preexisting=True)
        entry = database.create_index("idx_c", table_name, "colC",
                                      method=IndexMethod.HERMIT,
                                      host_column="colB")
        assert entry.host_column == "colB"
        predicate = RangePredicate("colC", 100_000.0, 150_000.0)
        indexed = database.query_with(table_name, "idx_c", predicate)
        scanned = scan_locations(database.table(table_name), predicate)
        assert_locations(indexed, scanned)

    @pytest.mark.parametrize("host_method, extra", [
        (IndexMethod.HERMIT, {}),
        (IndexMethod.CORRELATION_MAP, {"cm_target_bucket_width": 4096.0,
                                       "cm_host_bucket_width": 8192.0}),
    ], ids=["hermit", "correlation_map"])
    def test_only_a_btree_hosts(self, loaded, host_method, extra):
        """A column whose only index is itself correlation-based cannot
        host: the host must answer exactly, and only a B+-tree does."""
        database, table_name, _ = loaded
        database.create_index("idx_c", table_name, "colC",
                              method=host_method, host_column="colB",
                              **extra)
        with pytest.raises(CatalogError, match="no complete index"):
            database.create_index("idx_d", table_name, "colD",
                                  method=IndexMethod.HERMIT,
                                  host_column="colC")
        assert "idx_d" not in database.catalog.table_entry(
            table_name).indexes

    @pytest.mark.parametrize("retired", ["sorted_column", "composite"])
    def test_a_retired_kind_is_refused(self, loaded, retired):
        database, table_name, _ = loaded
        with pytest.raises(ValueError):
            IndexMethod(retired)
        with pytest.raises(QueryError, match="unsupported index method"):
            database.create_index("idx_d", table_name, "colD",
                                  method=retired)
        assert "idx_d" not in database.catalog.table_entry(
            table_name).indexes

    def test_memory_report_labels(self, loaded):
        database, table_name, _ = loaded
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        report = database.memory_report(table_name)
        assert {"table", "primary_index", "existing_indexes",
                "new_indexes"} <= set(report.components)
        # The Hermit index must be far smaller than the pre-existing B+-tree.
        assert report.components["new_indexes"] < report.components[
            "existing_indexes"] / 2

    def test_update_primary_key_maintains_primary_index(self, loaded):
        """Regression: a PK change must re-key the primary index.

        ``Database.update`` used to leave the primary index keyed on the old
        value, so pointer resolution for the row silently failed afterwards.
        """
        database, table_name, _ = loaded
        location = database.insert(table_name, {
            "colA": 30_000_000.0, "colB": 700.0, "colC": 777_777.0, "colD": 0.9,
        })
        database.update(table_name, location, {"colA": 31_000_000.0})
        entry = database.catalog.table_entry(table_name)
        assert entry.primary_index.search(30_000_000.0) == []
        assert entry.primary_index.search(31_000_000.0) == [location]
        # A delete after the PK change must find (and remove) the new entry.
        database.delete(table_name, location)
        assert entry.primary_index.search(31_000_000.0) == []

    def test_update_primary_key_resolves_through_planner(self):
        """Regression: under logical pointers a PK update must not lose rows.

        Secondary indexes store primary keys as tids; with a stale primary
        index the planner's resolution step dropped the updated row from
        every query result.
        """
        dataset = generate_synthetic(1000, "linear", seed=9)
        database = Database(pointer_scheme=PointerScheme.LOGICAL)
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.BTREE)
        location = database.insert(table_name, {
            "colA": 40_000_000.0, "colB": 5.0, "colC": 123.0, "colD": 0.1,
        })
        predicate = RangePredicate("colC", 122.0, 124.0)
        result = database.execute(QueryRequest.of(table_name, predicate))
        assert location in result.locations
        assert result.used_index == "idx_c"

        database.update(table_name, location, {"colA": 41_000_000.0})
        result = database.execute(QueryRequest.of(table_name, predicate))
        assert location in result.locations
        assert result.used_index == "idx_c"

    def test_logical_pointer_database(self):
        dataset = generate_synthetic(1000, "linear", seed=9)
        database = Database(pointer_scheme=PointerScheme.LOGICAL)
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        # Selective enough that the planner picks the Hermit path over a
        # scan even with the logical scheme's per-candidate resolution cost.
        predicate = RangePredicate("colC", 0.0, 10_000.0)
        indexed = database.execute(QueryRequest.of(table_name, predicate))
        scanned = scan_locations(database.table(table_name), predicate)
        assert_locations(indexed, scanned)
        assert indexed.used_index == "idx_c"
        assert indexed.breakdown.primary_index_seconds > 0

    def test_logical_pointer_scan_skips_resolution(self):
        """An unselective predicate scans — and a scan never resolves tids."""
        dataset = generate_synthetic(1000, "linear", seed=9)
        database = Database(pointer_scheme=PointerScheme.LOGICAL)
        table_name = load_synthetic(database, dataset)
        database.create_index("idx_c", table_name, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        predicate = RangePredicate("colC", 0.0, 900_000.0)
        result = database.execute(QueryRequest.of(table_name, predicate))
        assert result.used_index is None
        assert result.breakdown.primary_index_seconds == 0
        assert_locations(result, scan_locations(
            database.table(table_name), predicate))


class TestNullTargets:
    """A NULL target is stored as NaN and no range predicate matches it, so
    the Hermit TRS-Tree keeps nothing for it: NULLs mixed into the load, the
    inserts, the updates and the deletes leave the very tree the table
    without them builds, and the answers equal the reference scan."""

    SCHEMA = TableSchema("t", [Column("pk"), Column("host"),
                               Column("target", nullable=True)],
                         primary_key="pk")
    PROBES = [(-np.inf, np.inf), (100.0, 400.0), (480.0, 520.0), (0.0, 0.0),
              (990.0, 1_100.0)]

    @staticmethod
    def rows(rng, count: int, first_pk: float) -> dict:
        target = rng.uniform(0.0, 1_000.0, size=count)
        host = 1_000.0 / (1.0 + np.exp(-(target - 500.0) / 50.0))
        host[::9] += 3_000.0                              # outliers
        return {"pk": first_pk + np.arange(count, dtype=np.float64),
                "host": host, "target": target}

    @staticmethod
    def with_nulls(rows: dict, count: int, first_pk: float) -> dict:
        """``rows`` with ``count`` NULL-target rows spread among them."""
        nulls = {"pk": first_pk + np.arange(count, dtype=np.float64),
                 "host": np.linspace(0.0, 1_000.0, count),
                 "target": np.full(count, np.nan)}
        order = np.argsort(np.concatenate([
            np.arange(rows["pk"].size), np.linspace(0, rows["pk"].size, count)]),
            kind="stable")
        return {name: np.concatenate([rows[name], nulls[name]])[order]
                for name in rows}

    def run(self, nulls: bool) -> Database:
        rng = np.random.default_rng(5)
        load, batch, singles = (self.rows(rng, 4_000, 0.0),
                                self.rows(rng, 500, 10_000.0),
                                self.rows(rng, 10, 20_000.0))
        moved_in = self.rows(rng, 5, 30_000.0)
        database = Database()
        database.create_table(self.SCHEMA)
        database.insert_many("t", self.with_nulls(load, 10, 50_000.0)
                             if nulls else load)
        database.create_index("idx_host", "t", "host", method=IndexMethod.BTREE)
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.HERMIT, host_column="host")
        database.insert_many("t", self.with_nulls(batch, 50, 60_000.0)
                             if nulls else batch)
        for row in range(10):
            database.insert("t", {name: singles[name][row] for name in singles})
            if nulls:
                database.insert("t", {"pk": 70_000.0 + row, "host": 1.0})
        table = database.table("t")
        slots, pks, targets = table.project(["pk", "target"])
        null_slots = slots[np.isnan(targets)]
        emptied = slots[np.isin(pks, load["pk"][:5])]
        for row in range(5):
            if nulls:   # a NULL row takes the values the clean table inserts
                database.update("t", int(null_slots[row]), {
                    name: moved_in[name][row] for name in moved_in})
                database.update("t", int(emptied[row]), {"target": np.nan})
            else:
                database.insert("t", {name: moved_in[name][row]
                                      for name in moved_in})
                database.delete("t", int(emptied[row]))
        if nulls:
            slots, targets = table.project(["target"])
            for slot in slots[np.isnan(targets)]:
                database.delete("t", int(slot))
        return database

    def test_null_targets_leave_the_tree_and_the_answers_alone(self):
        clean, mixed = self.run(nulls=False), self.run(nulls=True)
        trees = [database.catalog.table_entry("t").indexes["idx_target"]
                 .mechanism.trs_tree for database in (clean, mixed)]
        for tree in trees:
            tree.check_invariants()
            assert tree.num_leaves > 1
        shapes = [(tree.num_leaves, tree.height, tree.num_outliers,
                   tree.memory_bytes(), tree.pending_reorganizations,
                   tree._table.num_inserted.tolist(),
                   tree._table.num_deleted.tolist()) for tree in trees]
        assert shapes[0] == shapes[1]
        for database in (clean, mixed):
            for low, high in self.PROBES:
                predicate = RangePredicate("target", low, high)
                assert_locations(
                    database.execute(QueryRequest.of("t", predicate)),
                    scan_locations(database.table("t"), predicate))
