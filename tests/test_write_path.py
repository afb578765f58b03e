"""Write-path equivalence tests.

A row is a batch of one, and a batch is its rows: for any data, any batch
and either pointer scheme, maintaining the indexes through ``insert_many``
(``delete_many``, ``update_many``) must leave every structure as the same
rows written one at a time leave it — at the index level (same entries in
the same key order), at the mechanism level (same lookup answers for
Hermit, the baseline secondary index and the Correlation Map) and at the
engine level (same query results through ``Database``).
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TRSTreeConfig
from repro.durability.config import DurabilityConfig
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import SchemaError, StorageError
from repro.index.base import KeyRange
from repro.index.ordered import OrderedIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import Column, DataType, TableSchema, numeric_schema
from repro.storage.table import Table

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

INDEX_FACTORIES = {
    "ordered": OrderedIndex,
    "paged": lambda: PagedBPlusTree(BufferPool(DiskManager(), capacity=64),
                                    node_capacity=8),
}

key_batches = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=0, max_size=120,
)


class TestIndexInsertManyEquivalence:
    """``Index.insert_many`` must match a scalar ``insert`` loop exactly."""

    @SETTINGS
    @pytest.mark.parametrize("kind", sorted(INDEX_FACTORIES))
    @given(base=key_batches, batch=key_batches)
    def test_matches_scalar_loop(self, kind, base, batch):
        reference = INDEX_FACTORIES[kind]()
        batched = INDEX_FACTORIES[kind]()
        for position, key in enumerate(base):
            reference.insert_many([key], [position])
            batched.insert_many([key], [position])
        for position, key in enumerate(batch):
            reference.insert_many([key], [1_000 + position])
        batched.insert_many(np.asarray(batch, dtype=np.float64),
                            np.arange(1_000, 1_000 + len(batch)))

        assert batched.num_entries == reference.num_entries
        assert sorted(batched.items()) == sorted(reference.items())
        batched_keys = [key for key, _ in batched.items()]
        assert batched_keys == sorted(batched_keys)
        for key_range in (KeyRange(-100.0, 100.0), KeyRange(0.0, 10.0),
                          KeyRange(5.0, 5.0)):
            assert (sorted(batched.range_search(key_range))
                    == sorted(reference.range_search(key_range)))

    def test_batch_into_empty_index_is_the_load(self):
        tree = OrderedIndex()
        keys = np.linspace(0.0, 1.0, 500)
        tree.insert_many(keys, np.arange(500))
        assert tree.num_entries == 500
        assert len(tree.range_search_array(KeyRange(0.0, 1.0))) == 500

    def test_batch_larger_than_the_index_folds_correctly(self):
        tree = OrderedIndex()
        tree.insert_many([0.5], [0])
        rng = np.random.default_rng(3)
        keys = rng.uniform(0.0, 1.0, 2_000)
        tree.insert_many(keys, np.arange(1, 2_001))
        assert tree.num_entries == 2_001
        found = tree.range_search_array(KeyRange(0.0, 1.0))
        assert len(found) == 2_001
        assert set(found.tolist()) == set(range(2_001))

    def test_length_mismatch_raises(self):
        for kind in sorted(INDEX_FACTORIES):
            index = INDEX_FACTORIES[kind]()
            with pytest.raises(StorageError):
                index.insert_many([1.0, 2.0], [0])


correlated_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=4,
    max_size=120,
)


def _columns_for(rows, start_pk: int):
    targets = np.asarray([t for t, _, _ in rows], dtype=np.float64)
    hosts = np.asarray(
        [3.0 * t - 7.0 + (noise if noisy else 0.0) for t, noise, noisy in rows],
        dtype=np.float64,
    )
    pks = np.arange(start_pk, start_pk + len(rows), dtype=np.float64)
    return {"pk": pks, "host": hosts, "target": targets}


def _build_database(scheme: PointerScheme, base_columns) -> Database:
    database = Database(pointer_scheme=scheme)
    database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                         primary_key="pk"))
    database.insert_many("t", base_columns)
    database.create_index("idx_host", "t", "host",
                          method=IndexMethod.BTREE, preexisting=True)
    database.create_index("idx_hermit", "t", "target",
                          method=IndexMethod.HERMIT, host_column="host")
    database.create_index("idx_baseline", "t", "target",
                          method=IndexMethod.BTREE)
    database.create_index("idx_cm", "t", "target",
                          method=IndexMethod.CORRELATION_MAP,
                          host_column="host",
                          cm_target_bucket_width=64.0,
                          cm_host_bucket_width=192.0)
    return database


class TestDatabaseWritePathEquivalence:
    """Scalar ``insert`` loop and ``insert_many`` are indistinguishable."""

    @SETTINGS
    @given(base=correlated_rows, batch=correlated_rows,
           scheme=st.sampled_from([PointerScheme.PHYSICAL,
                                   PointerScheme.LOGICAL]))
    def test_identical_indexes_and_lookups(self, base, batch, scheme):
        base_columns = _columns_for(base, 0)
        batch_columns = _columns_for(batch, len(base))
        scalar_db = _build_database(scheme, base_columns)
        batched_db = _build_database(scheme, base_columns)

        names = list(batch_columns)
        for values in zip(*(batch_columns[name] for name in names)):
            scalar_db.insert("t", dict(zip(names, values)))
        batched_db.insert_many("t", batch_columns)

        scalar_entry = scalar_db.catalog.table_entry("t")
        batched_entry = batched_db.catalog.table_entry("t")
        assert (list(scalar_entry.primary_index.items())
                == list(batched_entry.primary_index.items()))
        scalar_secondary = scalar_entry.indexes["idx_baseline"].mechanism.index
        batched_secondary = batched_entry.indexes["idx_baseline"].mechanism.index
        assert (sorted(scalar_secondary.items())
                == sorted(batched_secondary.items()))
        hermit_scalar = scalar_entry.indexes["idx_hermit"].mechanism
        hermit_batched = batched_entry.indexes["idx_hermit"].mechanism
        assert (hermit_scalar.trs_tree.num_outliers
                == hermit_batched.trs_tree.num_outliers)
        assert (batched_entry.indexes["idx_cm"].mechanism.num_bucket_links
                == scalar_entry.indexes["idx_cm"].mechanism.num_bucket_links)

        for index_name in ("idx_hermit", "idx_baseline", "idx_cm"):
            for low, high in ((0.0, 1000.0), (250.0, 500.0), (999.0, 999.0)):
                predicate = RangePredicate("target", low, high)
                scalar_found = scalar_db.query_with("t", index_name, predicate)
                batched_found = batched_db.query_with("t", index_name,
                                                      predicate)
                assert (set(map(int, scalar_found.locations))
                        == set(map(int, batched_found.locations)))

    def test_insert_delegates_to_batch_path(self, linear_database):
        """A single-row insert maintains every index through the batch path."""
        database, table_name = linear_database
        location = database.insert(table_name, {
            "colA": 1e9, "colB": 2.0 * 123_456.0 + 10.0,
            "colC": 123_456.0, "colD": 0.5,
        })
        result = database.execute(QueryRequest.of(
            table_name, RangePredicate("colC", 123_456.0, 123_456.0)))
        assert location in set(map(int, result.locations))

    def test_insert_rejects_unknown_and_missing_columns(self, linear_database):
        database, table_name = linear_database
        with pytest.raises(SchemaError):
            database.insert(table_name, {"colA": 1.0, "colB": 1.0,
                                         "colC": 1.0, "colD": 1.0,
                                         "bogus": 1.0})
        with pytest.raises(SchemaError):
            database.insert(table_name, {"colA": 1.0})


def _dml_database(scheme: PointerScheme) -> Database:
    """400 rows of a sine correlation (a 10% off-band), every mechanism.

    The Hermit tree splits into many leaves, so updates can move a pair
    within its leaf or across leaves.
    """
    database = Database(pointer_scheme=scheme,
                        trs_config=TRSTreeConfig(min_split_size=8))
    database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                         primary_key="pk"))
    rng = np.random.default_rng(11)
    targets = rng.uniform(0.0, 1000.0, 400)
    hosts = _sine_host(targets) + np.where(rng.random(400) < 0.1, 5e3, 0.0)
    database.insert_many("t", {"pk": np.arange(400.0), "host": hosts,
                               "target": targets})
    database.create_index("idx_host", "t", "host", preexisting=True)
    database.create_index("idx_hermit", "t", "target",
                          method=IndexMethod.HERMIT, host_column="host")
    database.create_index("idx_btree", "t", "target",
                          method=IndexMethod.BTREE)
    database.create_index("idx_cm", "t", "target",
                          method=IndexMethod.CORRELATION_MAP,
                          host_column="host", cm_target_bucket_width=64.0,
                          cm_host_bucket_width=192.0)
    return database


def _sine_host(targets):
    return np.sin(np.asarray(targets) / 40.0) * 500.0


# How an update moves a row: a hair within its leaf, half the domain away
# (another leaf), to a NULL target, off the band, or to a new primary key.
MOVES = ("same_leaf", "cross_leaf", "nan_target", "off_band", "new_pk")
dml_picks = st.lists(st.integers(min_value=0, max_value=10 ** 6),
                     max_size=8)
dml_updates = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10 ** 6),
              st.sampled_from(MOVES),
              st.floats(min_value=0.0, max_value=1.0)),
    max_size=8)


class TestBatchDmlEqualsRows:
    """``delete_many`` / ``update_many`` leave what the same rows written
    one ``delete`` / ``update`` at a time leave: the same table, the same
    answers through every mechanism, and every invariant."""

    @SETTINGS
    @given(deletes=dml_picks, updates=dml_updates,
           scheme=st.sampled_from([PointerScheme.PHYSICAL,
                                   PointerScheme.LOGICAL]))
    def test_batches_answer_like_their_rows(self, deletes, updates, scheme):
        batched, row_by_row = _dml_database(scheme), _dml_database(scheme)
        assert batched.catalog.table_entry("t").indexes[
            "idx_hermit"].mechanism.trs_tree.num_leaves > 8
        table = batched.table("t")

        live = table.live_slots()
        gone = list(dict.fromkeys(int(live[pick % live.size])
                                  for pick in deletes))
        batched.delete_many("t", gone)
        for location in gone:
            row_by_row.delete("t", location)

        live = table.live_slots()
        rows: dict = {}
        for number, (pick, move, amount) in enumerate(updates):
            location = int(live[pick % live.size])
            if location in rows:
                continue
            row = table.fetch(location)
            target = row["target"]
            if move == "same_leaf":
                target += amount * 1e-6
            elif move == "cross_leaf":
                target = (target + 500.0) % 1000.0
            elif move == "nan_target":
                target = float("nan")
            host = (row["host"] if move in ("nan_target", "new_pk")
                    else float(_sine_host(target)))
            if move == "off_band":
                host += 5e3
            pk = 10_000.0 + number if move == "new_pk" else row["pk"]
            rows[location] = {"pk": pk, "host": host, "target": target}
        batched.update_many("t", list(rows), {
            name: [changes[name] for changes in rows.values()]
            for name in ("pk", "host", "target")})
        for location, changes in rows.items():
            row_by_row.update("t", location, changes)

        for database in (batched, row_by_row):
            database.check_invariants()
        stored = [database.table("t").project(["pk", "host", "target"])
                  for database in (batched, row_by_row)]
        for mine, theirs in zip(*stored):
            assert np.array_equal(mine, theirs, equal_nan=True)
        slots, _, hosts, targets = stored[0]
        for column, values, index_names in (
                ("target", targets, ("idx_hermit", "idx_btree", "idx_cm")),
                ("host", hosts, ("idx_host",))):
            for low, high in ((0.0, 1000.0), (120.0, 480.0), (-600.0, 0.0),
                              (500.0, 5600.0)):
                expected = slots[(values >= low) & (values <= high)].tolist()
                predicate = RangePredicate(column, low, high)
                for database in (batched, row_by_row):
                    for name in index_names:
                        found = database.query_with("t", name, predicate)
                        assert found.locations.tolist() == expected, name
                    assert database.execute(QueryRequest.of(
                        "t", predicate)).locations.tolist() == expected
        pair = [RangePredicate("host", -200.0, 300.0),
                RangePredicate("target", 100.0, 900.0)]
        expected = slots[(hosts >= -200.0) & (hosts <= 300.0)
                         & (targets >= 100.0) & (targets <= 900.0)].tolist()
        for database in (batched, row_by_row):
            assert database.execute(QueryRequest.of(
                "t", pair)).locations.tolist() == expected


LOAD_INPUTS = {
    "empty": [],
    "single_key": [(3.5, 7)],
    "all_equal": [(2.0, tid) for tid in range(60)],
    "duplicate_heavy": [(float(i % 5), i) for i in range(400)],
    "both_zeros": [(0.0, 1), (-0.0, 2), (0.0, 3), (1.0, 4)],
    "distinct_unsorted": [(float((i * 7919) % 1009), i) for i in range(1009)],
    "fractional_tids": [(float(i // 3), i + 0.5) for i in range(90)],
}


class TestLoadIsInsertManyIntoEmpty:
    """``insert_many`` into an empty index builds what a scalar loop builds."""

    @pytest.mark.parametrize("name", sorted(LOAD_INPUTS))
    def test_ordered_index_loads_like_the_scalar_loop(self, name):
        pairs = LOAD_INPUTS[name]
        oracle = OrderedIndex()
        for key, tid in pairs:
            oracle.insert_many([key], [tid])
        loaded = OrderedIndex()
        loaded.insert_many([key for key, _ in pairs],
                           np.asarray([tid for _, tid in pairs]))
        assert list(loaded.items()) == list(oracle.items())
        assert loaded.num_entries == len(pairs)
        assert loaded.memory_bytes() == oracle.memory_bytes()
        probe = KeyRange(0.0, 3.0)
        # The loop's index holds a record, read beside its run: one range's
        # tids are not in key order across the two.
        assert (sorted(loaded.range_search_segmented([probe])[0].tolist())
                == sorted(oracle.range_search_array(probe).tolist()))

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("name", sorted(LOAD_INPUTS))
    def test_batches_of_any_size_build_what_the_scalar_loop_builds(
            self, name, size):
        """The first batch is adopted as the run; the later ones go through
        the pending record or fold straight in, by the quarter rule."""
        pairs = LOAD_INPUTS[name]
        oracle = OrderedIndex()
        for key, tid in pairs:
            oracle.insert_many([key], [tid])
        batched = OrderedIndex()
        for start in range(0, len(pairs), size):
            chunk = pairs[start:start + size]
            batched.insert_many([key for key, _ in chunk],
                                np.asarray([tid for _, tid in chunk]))
        assert batched.num_entries == oracle.num_entries == len(pairs)
        probe = KeyRange(0.0, 3.0)
        assert (sorted(batched.range_search_segmented([probe])[0].tolist())
                == sorted(oracle.range_search_array(probe).tolist()))
        assert list(batched.items()) == list(oracle.items())
        assert batched.memory_bytes() == oracle.memory_bytes()


class TestBulkLoadBranchConsistency:
    """A batch into an empty table loads the primary index *and* notifies
    the mechanisms."""

    def test_mechanisms_see_rows_bulk_loaded_into_empty_table(self):
        database = Database()
        database.create_table(numeric_schema("t", ["pk", "host", "target"],
                                             primary_key="pk"))
        database.create_index("idx_host", "t", "host",
                              method=IndexMethod.BTREE, preexisting=True)
        database.create_index("idx_hermit", "t", "target",
                              method=IndexMethod.HERMIT, host_column="host")
        targets = np.linspace(0.0, 100.0, 50)
        database.insert_many("t", {
            "pk": np.arange(50, dtype=np.float64),
            "host": 2.0 * targets + 1.0,
            "target": targets,
        })
        entry = database.catalog.table_entry("t")
        assert entry.primary_index.num_entries == 50
        for index_name in ("idx_host", "idx_hermit"):
            predicate = (RangePredicate("host", 0.0, 300.0)
                         if index_name == "idx_host"
                         else RangePredicate("target", 0.0, 100.0))
            found = database.query_with("t", index_name, predicate)
            assert len(found.locations) == 50

    def test_table_insert_many_rejects_missing_non_nullable_column(self):
        schema = TableSchema("t", [Column("pk"), Column("x"),
                                   Column("y", nullable=True)],
                             primary_key="pk")
        table = Table(schema)
        with pytest.raises(SchemaError):
            table.validate_insert_many({"pk": [1.0]})
        locations = table.insert_many(
            table.validate_insert_many({"pk": [1.0], "x": [2.0]}))
        assert len(locations) == 1
        assert np.isnan(table.value(locations[0], "y"))

    def test_mechanisms_index_stored_values_not_supplied_values(self):
        """Batch notifications must carry the dtype-coerced stored values.

        Storing 2.7 into an INT64 column keeps 2; the secondary index must
        key 2 as well (the per-row path notified mechanisms from ``fetch``,
        which returned the stored value).
        """
        schema = TableSchema("t", [Column("pk"),
                                   Column("target", dtype=DataType.INT64)],
                             primary_key="pk")
        database = Database()
        database.create_table(schema)
        database.create_index("idx_target", "t", "target",
                              method=IndexMethod.BTREE)
        database.insert_many("t", {"pk": [1.0, 2.0], "target": [2.7, 5.2]})
        stored = database.query_with(
            "t", "idx_target", RangePredicate("target", 2.0, 2.0)
        )
        assert len(stored.locations) == 1
        supplied = database.query_with(
            "t", "idx_target", RangePredicate("target", 2.7, 2.7)
        )
        assert len(supplied.locations) == 0

    def test_the_primary_index_keys_the_stored_key(self):
        """An INT64 key given as 2.7 is stored as 2, and the primary index
        keys 2: the row stays consistent and can be deleted."""
        database = Database()
        database.create_table(TableSchema("t", [
            Column("pk", dtype=DataType.INT64), Column("x")],
            primary_key="pk"))
        database.insert_many("t", {"pk": [1.0, 2.7], "x": [1.0, 2.0]})
        database.check_invariants()
        database.delete("t", 1)
        database.check_invariants()

    def test_second_batch_merges_instead_of_bulk_loading(self):
        database = Database()
        database.create_table(numeric_schema("t", ["pk", "x"],
                                             primary_key="pk"))
        database.insert_many("t", {"pk": [1.0, 2.0], "x": [10.0, 20.0]})
        database.insert_many("t", {"pk": [3.0], "x": [30.0]})
        entry = database.catalog.table_entry("t")
        assert entry.primary_index.num_entries == 3
        assert [key for key, _ in entry.primary_index.items()] == [1.0, 2.0, 3.0]


class TestLoadAllocations:
    """A load moves its rows as arrays: no Python object per row.

    Measured with ``tracemalloc`` on a 100k-row, four-column load (3.2 MB
    of column data).  A per-row object (a ``RowLocation``, a boxed ``int``
    on the way to the index builds) costs 30-60 B a row, i.e. 1-2x the
    column bytes again, which is what the bounds leave no room for.
    """

    ROWS = 100_000

    def columns(self):
        rng = np.random.default_rng(5)
        return {"pk": np.arange(self.ROWS, dtype=np.float64),
                **{name: rng.uniform(0.0, 1.0, self.ROWS)
                   for name in ("x", "y", "z")}}

    @staticmethod
    def traced(call):
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            result = call()
            _, peak = tracemalloc.get_traced_memory()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        blocks = sum(stat.count_diff
                     for stat in after.compare_to(before, "filename"))
        return result, peak, blocks

    def test_table_insert_many_keeps_no_object_per_row(self):
        table = Table(numeric_schema("t", ["pk", "x", "y", "z"],
                                     primary_key="pk"))
        columns = self.columns()
        slots, _, blocks = self.traced(lambda: table.insert_many(
            table.validate_insert_many(columns)))
        assert slots.tolist() == list(range(self.ROWS))
        assert blocks < 100

    def test_database_insert_many_allocates_column_bytes_not_objects(self):
        columns = self.columns()
        nbytes = sum(values.nbytes for values in columns.values())
        database = Database()
        database.create_table(numeric_schema("t", list(columns),
                                             primary_key="pk"))
        locations, peak, _ = self.traced(
            lambda: database.insert_many("t", columns))
        # The list[int] the call returns is its contract; everything else
        # is column-sized arrays (the table's grown columns, the primary
        # index's sorted keys and tids).
        returned = sys.getsizeof(locations) + sum(map(sys.getsizeof,
                                                      locations))
        assert locations == list(range(self.ROWS))
        assert peak - returned < 3 * nbytes


class TestCountedWriteWork:
    """Each write batch is checked once: counted, not timed.

    On the e2e schema (four columns, a B+-tree on ``colB``, Hermit on
    ``colC``) every DML call makes one location check, one coercion pass
    and one schema check where its kind has them, and a delete or an update
    gathers each column of its rows once — whether or not a write-ahead log
    is attached.
    """

    COLUMNS = ("colA", "colB", "colC", "colD")
    COUNTED = {
        "validate_locations": Table.validate_locations.__code__,
        "coerce": Table._coerced.__code__,
        "schema_check": TableSchema.validate_row.__code__,
        "gather": Table.values.__code__,
    }
    EXPECTED = {
        "insert": {"validate_locations": 0, "coerce": 1, "schema_check": 1,
                   "gather": 0},
        "delete": {"validate_locations": 1, "coerce": 0, "schema_check": 0,
                   "gather": 4},
        "update": {"validate_locations": 1, "coerce": 1, "schema_check": 1,
                   "gather": 4},
    }

    def database(self, durability):
        database = Database(durability=durability)
        database.create_table(numeric_schema("t", self.COLUMNS,
                                             primary_key="colA"))
        rng = np.random.default_rng(2)
        c = rng.uniform(0.0, 1000.0, 400)
        database.insert_many("t", {"colA": np.arange(400.0),
                                   "colB": 2.0 * c + 10.0, "colC": c,
                                   "colD": rng.uniform(size=400)})
        database.create_index("idx_colB", "t", "colB")
        database.create_index("idx_colC", "t", "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        return database

    def counted(self, call) -> dict[str, int]:
        names = {code: name for name, code in self.COUNTED.items()}
        calls = dict.fromkeys(self.COUNTED, 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return calls

    @pytest.mark.parametrize("wal", [False, True], ids=["wal_off", "wal_on"])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("kind", ["insert", "delete", "update"])
    def test_one_check_per_batch(self, tmp_path, wal, rows, kind):
        durability = (DurabilityConfig(directory=str(tmp_path)) if wal
                      else None)
        database = self.database(durability)
        new = np.arange(rows, dtype=np.float64)
        one = rows == 1
        calls = {
            "insert": lambda: (
                database.insert("t", {"colA": 1e4, "colB": 30.0,
                                      "colC": 10.0, "colD": 0.5}) if one
                else database.insert_many("t", {
                    "colA": 1e4 + new, "colB": 30.0 + new,
                    "colC": 10.0 + new, "colD": new})),
            "delete": lambda: (
                database.delete("t", 7) if one
                else database.delete_many("t", [7, 99, 3])),
            "update": lambda: (
                database.update("t", 7, {"colC": 5.0}) if one
                else database.update_many("t", [7, 99, 3], {
                    "colC": 5.0 + new, "colA": 2e4 + new})),
        }
        assert self.counted(calls[kind]) == self.EXPECTED[kind]
        database.check_invariants()
        database.close()


class TestStatisticsSeeEveryBatch:
    """A NaN in a batch hides nothing: the column statistics move over the
    batch's other values, as they do row by row."""

    @staticmethod
    def database() -> Database:
        database = Database()
        database.create_table(TableSchema("t", [
            Column("pk"), Column("x", nullable=True)], primary_key="pk"))
        database.insert_many("t", {"pk": [0.0, 1.0], "x": [1.0, 2.0]})
        return database

    @staticmethod
    def bounds(database: Database) -> tuple[float, float]:
        stats = database.catalog.column_stats("t", "x")
        return stats.minimum, stats.maximum

    def test_insert_many(self):
        database = self.database()
        database.insert_many("t", {"pk": [2.0, 3.0], "x": [np.nan, -5.0]})
        assert self.bounds(database) == (-5.0, 2.0)
        assert database.table("t").statistics["x"].count == 4

    def test_update_many(self):
        database = self.database()
        database.update_many("t", [0, 1], {"x": [np.nan, -7.0]})
        assert self.bounds(database) == (-7.0, 2.0)

    def test_an_all_nan_batch_moves_no_bound(self):
        database = self.database()
        database.insert_many("t", {"pk": [2.0, 3.0], "x": [np.nan, np.nan]})
        database.update_many("t", [0], {"x": [np.nan]})
        assert self.bounds(database) == (1.0, 2.0)
