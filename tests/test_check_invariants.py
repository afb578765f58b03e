"""``Database.check_invariants()`` catches every way an index can drift.

The oracle machine trusts this check after every step, so it is checked
here on its own.  Each case builds the machine's three mechanism tables
(Hermit, B+-tree, Correlation Map) under one pointer scheme, corrupts one
structure of one table behind the engine's back, and expects an
``AssertionError`` naming that structure: the primary index, the host
index (its rows, or the ordered index's own shape), a complete target
index, the Hermit TRS-Tree or the Correlation Map.  The same database passes when left alone and after every kind of
write and maintenance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.engine.database import Database
from repro.storage.identifiers import PointerScheme

from test_engine_oracle import INDEXES, ROWS, TABLES, TRS, host_for, schema_of

SCHEMES = pytest.mark.parametrize("scheme", list(PointerScheme),
                                  ids=lambda scheme: scheme.value)


class Row(NamedTuple):
    slot: int
    pk: float
    host: float
    target: float
    tid: float


def build(scheme: PointerScheme) -> Database:
    """The three tables, loaded before their indexes; every fifth row's host
    is off the correlation band, so Hermit holds outliers."""
    database = Database(pointer_scheme=scheme, trs_config=TRS)
    rng = np.random.default_rng(11)
    for name in TABLES:
        database.create_table(schema_of(name))
        targets = rng.uniform(0.0, 1_000.0, ROWS)
        database.insert_many(name, {
            "pk": np.arange(ROWS, dtype=np.float64),
            "host": [host_for(target, row % 5 != 0)
                     for row, target in enumerate(targets.tolist())],
            "target": targets,
        })
        database.create_index("idx_host", name, "host")
        database.create_index("idx_target", name, "target", **INDEXES[name])
    return database


def rows(database: Database, table: str) -> list[Row]:
    slots, pks, hosts, targets = database.table(table).project(
        ["pk", "host", "target"])
    tids = slots if database.pointer_scheme is PointerScheme.PHYSICAL else pks
    return [Row(*values) for values in zip(
        slots.tolist(), pks.tolist(), hosts.tolist(), targets.tolist(),
        tids.tolist())]


def mechanism(database: Database, table: str, index: str):
    return database.catalog.table_entry(table).indexes[index].mechanism


# ------------------------------------------------------------ corruptions
# Each takes (database, table, index name) and returns the name the
# AssertionError must mention.

def primary_misses_a_live_row(database, table, index):
    row = rows(database, table)[0]
    database.catalog.table_entry(table).primary_index.delete_many([row.pk], [row.slot])
    return "index 'pk'"


def primary_keeps_a_deleted_row(database, table, index):
    row = rows(database, table)[0]
    database.delete(table, row.slot)
    database.catalog.table_entry(table).primary_index.insert_many([row.pk], [row.slot])
    return "index 'pk'"


def primary_points_at_another_row(database, table, index):
    first, second = rows(database, table)[:2]
    primary = database.catalog.table_entry(table).primary_index
    primary.delete_many([first.pk], [first.slot])
    primary.insert_many([first.pk], [second.slot])
    return "index 'pk'"


def misses_a_live_row(database, table, index):
    row = rows(database, table)[1]
    mechanism(database, table, index).index.delete_many(
        [getattr(row, index.removeprefix("idx_"))], [row.tid])
    return f"index {index!r}"


def keeps_a_deleted_row(database, table, index):
    row = rows(database, table)[1]
    database.delete(table, row.slot)
    mechanism(database, table, index).index.insert_many(
        [getattr(row, index.removeprefix("idx_"))], [row.tid])
    return f"index {index!r}"


def files_a_stale_key(database, table, index):
    row = rows(database, table)[2]
    key = getattr(row, index.removeprefix("idx_"))
    backing = mechanism(database, table, index).index
    backing.delete_many([key], [row.tid])
    backing.insert_many([key + 1.0], [row.tid])
    return f"index {index!r}"


def files_under_another_tid(database, table, index):
    row, other = rows(database, table)[3:5]
    key = getattr(row, index.removeprefix("idx_"))
    backing = mechanism(database, table, index).index
    backing.delete_many([key], [row.tid])
    backing.insert_many([key], [other.tid])
    return f"index {index!r}"


def outlier(database) -> tuple:
    """The Hermit tree and one of its outlier rows."""
    tree = mechanism(database, "hermit", "idx_target").trs_tree
    filed = set(tree._outliers.items())
    row = next(row for row in rows(database, "hermit")
               if (row.target, row.tid) in filed)
    return tree, row


def outlier_dropped(database, table, index):
    tree, row = outlier(database)
    tree.delete_many([row.target], [row.host], [row.tid])
    return "neither behind its leaf's band nor an outlier"


def outlier_under_another_tid(database, table, index):
    tree, row = outlier(database)
    tree.delete_many([row.target], [row.host], [row.tid])
    tree.insert_many([row.target], [row.host], [rows(database, table)[-1].tid])
    return "neither behind its leaf's band nor an outlier"


def outlier_count_off(database, table, index):
    mechanism(database, table, index).trs_tree._table.num_outliers[-1] += 1
    return "per-leaf outlier counts"


def unmodelled_count_off(database, table, index):
    leaves = mechanism(database, table, index).trs_tree._table
    leaves.num_unmodelled[-1] = leaves.num_outliers[-1] + 1
    return "non-finite-host outliers"


def leaf_path_repeated(database, table, index):
    leaves = mechanism(database, table, index).trs_tree._table
    leaves.paths[2] = leaves.paths[1]
    return "does not follow its predecessor"


def leaf_bound_moved(database, table, index):
    leaves = mechanism(database, table, index).trs_tree._table
    leaves.bounds[0] += 1.0
    return "bound is not its path's"


def leaf_counter_short(database, table, index):
    leaves = mechanism(database, table, index).trs_tree._table
    leaves.num_covered = leaves.num_covered[:-1]
    return "a column without one entry per leaf"


def cm_loses_its_links(database, table, index):
    mechanism(database, table, index)._mapping.clear()
    return "is not linked"


def cm_misses_a_null_host_row(database, table, index):
    row = rows(database, table)[0]
    database.update(table, row.slot, {"host": np.nan})
    database.check_invariants()
    mechanism(database, table, index)._null_hosts.delete_many([row.target], [row.tid])
    return "NULL-host index"


def cm_loses_one_link(database, table, index):
    cm = mechanism(database, table, index)
    row = rows(database, table)[0]
    cm._mapping[int(np.floor(row.target / cm.target_bucket_width))].discard(
        int(np.floor(row.host / cm.host_bucket_width)))
    return "is not linked"


def cm_files_a_linked_row_as_null_host(database, table, index):
    row = rows(database, table)[0]
    mechanism(database, table, index)._null_hosts.insert_many([row.target],
                                                              [row.tid])
    return "NULL-host index"


def distinct_key_count_off(database, table, index):
    backing = mechanism(database, table, index).index
    state = backing._state
    backing._state = state._replace(
        run=state.run._replace(num_keys=state.run.num_keys - 1))
    return f"index {index!r}"


def dead_mark_past_the_run(database, table, index):
    backing = mechanism(database, table, index).index
    state = backing._state
    backing._state = state._replace(dead=np.array([state.run.keys.size + 2]))
    return f"index {index!r}"


def unsorted_insert_run(database, table, index):
    database.insert_many(table, {"pk": [1_000.0, 1_001.0],
                                 "host": [host_for(10.0, True),
                                          host_for(900.0, True)],
                                 "target": [10.0, 900.0]})
    backing = mechanism(database, table, index).index
    state = backing._state
    assert state.inserts.keys.size == 2
    backing._state = state._replace(inserts=state.inserts._replace(
        keys=state.inserts.keys[::-1].copy()))
    return f"index {index!r}"


EVERY_TABLE = [primary_misses_a_live_row, primary_keeps_a_deleted_row,
               primary_points_at_another_row]
EVERY_INDEX = [misses_a_live_row, keeps_a_deleted_row, files_a_stale_key,
               files_under_another_tid]
CASES = (
    [(corrupt, table, "idx_host") for corrupt in EVERY_TABLE + EVERY_INDEX
     for table in TABLES]
    + [(corrupt, "btree", "idx_target") for corrupt in EVERY_INDEX]
    + [(corrupt, "btree", "idx_host") for corrupt in
       (distinct_key_count_off, dead_mark_past_the_run, unsorted_insert_run)]
    + [(corrupt, "hermit", "idx_target") for corrupt in
       (outlier_dropped, outlier_under_another_tid, outlier_count_off,
        unmodelled_count_off, leaf_path_repeated, leaf_bound_moved,
        leaf_counter_short)]
    + [(corrupt, "cm", "idx_target") for corrupt in
       (cm_loses_its_links, cm_loses_one_link, cm_misses_a_null_host_row,
        cm_files_a_linked_row_as_null_host)])


@SCHEMES
@pytest.mark.parametrize(
    "corrupt, table, index", CASES,
    ids=[f"{corrupt.__name__}-{table}-{index}"
         for corrupt, table, index in CASES])
def test_corruption_is_caught(scheme, corrupt, table, index):
    database = build(scheme)
    database.check_invariants()
    names = corrupt(database, table, index)
    with pytest.raises(AssertionError, match=names):
        database.check_invariants()


# ------------------------------------------------------ what must pass

def churn(database: Database) -> None:
    """Every kind of write on every table: NULL, out-of-domain, off-band and
    NULL-host inserts, batched and per row; deletes; target, host and key
    updates, to and from a NULL host."""
    for name in TABLES:
        database.insert_many(name, {
            "pk": [1_000.0, 1_001.0, 1_002.0, 1_004.0],
            "host": [5.0, host_for(-50.0, True), host_for(500.0, False),
                     host_for(600.0, None)],
            "target": [np.nan, -50.0, 500.0, 600.0]})
        database.insert(name, {"pk": 1_003.0, "host": host_for(2_000.0, True),
                               "target": 2_000.0})
        live = rows(database, name)
        for row in live[::7]:
            database.delete(name, row.slot)
        database.update(name, live[1].slot, {"target": np.nan})
        database.update(name, live[2].slot, {"host": host_for(1.0, False)})
        database.update(name, live[4].slot, {"host": host_for(1.0, None)})
        database.update(name, live[4].slot, {"host": host_for(1.0, True)})
        database.update(name, live[5].slot, {"host": host_for(1.0, None)})
        database.update(name, live[3].slot, {"pk": 2_000.0, "target": 10.0})


def reorganize(database: Database) -> None:
    churn(database)
    database.reorganize()


def load(database: Database) -> None:
    pass


@SCHEMES
@pytest.mark.parametrize("writes", [load, churn, reorganize],
                         ids=lambda writes: writes.__name__)
def test_a_sound_database_passes(scheme, writes):
    database = build(scheme)
    writes(database)
    database.check_invariants()
