"""Figure 22 — Insertion throughput vs. number of new indexes (Synthetic – Linear).

Paper result: with 10 new indexes maintained as Hermit structures, insertion
throughput is ~2.6x higher than with conventional secondary indexes, because
a TRS-Tree insert only touches an outlier buffer when necessary, while every
B+-tree insert pays a full index-maintenance path.  The baseline spends >80%
of its insertion time maintaining the secondary indexes.

The sweep's Baseline keeps its new indexes in B+-trees (:func:`paged_baseline`):
the engine's ``BTREE`` method is an ordered index whose single-row write only
records the pair, which is not the insert path the figure is about.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import FigureData, insertion_throughput
from repro.bench.report import format_figure, format_table
from repro.bench.timing import scaled
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.workloads.synthetic import generate_synthetic, load_synthetic

INDEX_COUNTS = [1, 2, 4, 8, 10]
BASE_TUPLES = 10_000
INSERT_BATCH = 2_000


def build_database(method: IndexMethod, num_indexes: int):
    dataset = generate_synthetic(scaled(BASE_TUPLES), "linear",
                                 noise_fraction=0.01)
    database = Database()
    table_name = load_synthetic(database, dataset,
                                extra_correlated_columns=num_indexes)
    for i in range(num_indexes):
        database.create_index(f"new_colE{i}", table_name, f"colE{i}",
                              method=method,
                              host_column="colB"
                              if method is IndexMethod.HERMIT else None)
    return database, table_name


def paged_baseline(num_indexes: int):
    """:func:`build_database` with ``BTREE`` indexes, each moved onto a
    :class:`PagedBPlusTree` (Figure 24's tree, every page resident) loaded
    with the same entries, so every row insert pays a B+-tree insert."""
    database, table_name = build_database(IndexMethod.BTREE, num_indexes)
    pool = BufferPool(DiskManager(), capacity=1 << 16)
    for entry in database.catalog.table_entry(table_name).indexes.values():
        keys, tids = (np.asarray(column)
                      for column in zip(*entry.mechanism.index.items()))
        entry.mechanism.index = PagedBPlusTree(pool)
        entry.mechanism.index.insert_many(keys, tids)
    return database, table_name


def insertion_rows(count: int, start: float = 5e7) -> list[dict]:
    rows = []
    for i in range(count):
        col_c = float((i * 37) % 1_000_000)
        col_b = 2.0 * col_c + 10.0
        row = {"colA": start + i, "colB": col_b, "colC": col_c, "colD": 0.0}
        rows.append(row)
    return rows


def with_extra_columns(rows: list[dict], num_indexes: int) -> list[dict]:
    return [dict(row, **{f"colE{i}": row["colB"] for i in range(num_indexes)})
            for row in rows]


def rows_to_columns(rows: list[dict]) -> dict[str, list[float]]:
    """Transpose row dicts into the column-oriented ``insert_many`` shape."""
    return {name: [row[name] for row in rows] for name in rows[0]}


@pytest.mark.figure("fig22")
@pytest.mark.parametrize("method,label", [(IndexMethod.HERMIT, "HERMIT"),
                                          (IndexMethod.BTREE, "Baseline")])
def test_fig22_insert_benchmark(benchmark, method, label):
    """Headline measurement: inserting a batch with 4 maintained new indexes."""
    database, table_name = build_database(method, num_indexes=4)
    rows = with_extra_columns(insertion_rows(200), 4)
    counter = [0]

    def insert_batch():
        offset = counter[0]
        counter[0] += len(rows)
        for i, row in enumerate(rows):
            database.insert(table_name, dict(row, colA=9e8 + offset + i))

    benchmark.pedantic(insert_batch, rounds=3, iterations=1)


@pytest.mark.figure("fig22")
@pytest.mark.parametrize("method,label", [(IndexMethod.HERMIT, "HERMIT"),
                                          (IndexMethod.BTREE, "Baseline")])
def test_fig22_batched_insert_matches_scalar(benchmark, method, label):
    """Batched ``insert_many`` maintains the same indexes as the scalar loop.

    The Figure 22 scenario (4 maintained new indexes) raced through both
    write paths: the batch must leave the database in an identical state and
    must not be slower than inserting the rows one at a time.
    """
    rows = with_extra_columns(insertion_rows(scaled(INSERT_BATCH)), 4)
    columns = rows_to_columns(rows)

    def race():
        scalar_db, table_name = build_database(method, num_indexes=4)
        batched_db, _ = build_database(method, num_indexes=4)
        started = time.perf_counter()
        for row in rows:
            scalar_db.insert(table_name, row)
        scalar_seconds = time.perf_counter() - started
        started = time.perf_counter()
        batched_db.insert_many(table_name, columns)
        batched_seconds = time.perf_counter() - started
        return scalar_db, batched_db, table_name, scalar_seconds, batched_seconds

    scalar_db, batched_db, table_name, scalar_seconds, batched_seconds = (
        benchmark.pedantic(race, rounds=1, iterations=1)
    )
    speedup = scalar_seconds / max(batched_seconds, 1e-12)
    print(f"\n{label}: scalar {scalar_seconds:.3f}s, batched "
          f"{batched_seconds:.3f}s, speedup {speedup:.1f}x")

    scalar_entry = scalar_db.catalog.table_entry(table_name)
    batched_entry = batched_db.catalog.table_entry(table_name)
    assert scalar_entry.table.num_rows == batched_entry.table.num_rows
    assert (scalar_entry.primary_index.num_entries
            == batched_entry.primary_index.num_entries)
    for low, high in [(0.0, 50_000.0), (400_000.0, 500_000.0)]:
        request = QueryRequest.range(table_name, "colE0", low, high)
        assert np.array_equal(scalar_db.execute(request).locations,
                              batched_db.execute(request).locations)
    # Loose bound at bench scale — the full acceptance target lives in
    # bench_writepath_vectorized.py.
    assert speedup > 0.8


@pytest.mark.figure("fig22")
def test_fig22_report_insertion_sweep(benchmark):
    def sweep():
        figure = FigureData("Figure 22a", "number of new indexes", "Kops")
        for count in INDEX_COUNTS:
            rows = with_extra_columns(insertion_rows(scaled(INSERT_BATCH)),
                                      count)
            for label, database_for in (
                    ("HERMIT", lambda: build_database(IndexMethod.HERMIT, count)),
                    ("Baseline", lambda: paged_baseline(count))):
                database, table_name = database_for()
                figure.add_point(label, count, insertion_throughput(
                    database, table_name, rows).kops)
        return figure

    figure = benchmark.pedantic(sweep, rounds=1, iterations=1)
    figure.notes.append("paper: HERMIT ~2.6x Baseline at 10 indexes")
    print()
    print(format_figure(figure))

    hermit = figure.series["HERMIT"].ys
    baseline = figure.series["Baseline"].ys
    # With many indexes Hermit sustains higher insert throughput (paper: 2.6x;
    # 2.0-2.4x here, on a 2-core x86 box: the shared per-insert engine
    # overhead — base table, statistics, primary index — is a larger
    # constant in pure Python).
    assert hermit[-1] > baseline[-1]
    # The baseline's throughput degrades more steeply as indexes are added.
    baseline_drop = baseline[0] / baseline[-1]
    hermit_drop = hermit[0] / hermit[-1]
    assert baseline_drop > hermit_drop

    rows = [["HERMIT", hermit[0], hermit[-1]],
            ["Baseline", baseline[0], baseline[-1]]]
    print(format_table(["mechanism", "Kops @1 index", "Kops @10 indexes"], rows))
