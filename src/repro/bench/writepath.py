"""Write-path microbenchmark: per-row scalar inserts vs. batched ``insert_many``.

The batched write path (one table append, one sorted merge into the primary
index, one column-oriented ``insert_many`` notification per secondary
mechanism) and the per-row path (``Database.insert``, which delegates to the
batch machinery with a batch of one) maintain exactly the same structures, so
their throughput ratio isolates the per-row interpreter overhead the batch
APIs remove.

Every measurement builds *two* identical databases (base table + pre-existing
complete host index + one secondary mechanism), inserts the same rows through
each path, and then verifies the outcome is indistinguishable: identical
primary-index contents and identical query answers on ranges spread over the
full target domain.  A batched-write correctness bug therefore shows up as
``results_agree=False`` rather than as a silently wrong speedup.

The runner (``benchmarks/ratio_gates.py``) and the tier-1 bench-smoke test
share this implementation.  The (target, host) column pair of each paper
workload (Stock, Sensor, Synthetic-Linear) is drawn here too, and the
sensor false-positive race (``repro.bench.sensor_fp``) loads the same one.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.bench.timing import paired_ratio
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.workloads.sensor import generate_sensor, sensor_column
from repro.workloads.stock import generate_stock, high_column, low_column
from repro.workloads.synthetic import generate_synthetic

WORKLOADS = ("stock", "sensor", "synthetic")
MECHANISMS = ("HERMIT", "Baseline")
_VERIFY_RANGES = 5


def _workload_columns(workload: str, num_tuples: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, host) column pair for one paper workload."""
    if workload == "stock":
        dataset = generate_stock(num_stocks=1, num_days=num_tuples, seed=seed)
        return dataset.columns[high_column(0)], dataset.columns[low_column(0)]
    if workload == "sensor":
        dataset = generate_sensor(num_tuples=num_tuples, num_sensors=4,
                                  seed=seed)
        return dataset.columns[sensor_column(0)], dataset.columns["average"]
    if workload == "synthetic":
        dataset = generate_synthetic(num_tuples, "linear",
                                     noise_fraction=0.01, seed=seed)
        return dataset.columns["colC"], dataset.columns["colB"]
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")


def build_write_database(table_name: str, mechanism: str, base_columns: dict,
                         pointer_scheme: PointerScheme) -> Database:
    """One database primed for the insert race.

    The database holds the workload's base rows, a pre-existing complete
    B+-tree index on the host column, and the mechanism under test on the
    target column — the paper's Figure 22 starting state reduced to a single
    new index.
    """
    database = Database(pointer_scheme=pointer_scheme)
    database.create_table(numeric_schema(table_name,
                                         ["pk", "host", "target"],
                                         primary_key="pk"))
    database.insert_many(table_name, base_columns)
    database.create_index("idx_host", table_name, "host",
                          method=IndexMethod.BTREE, preexisting=True)
    if mechanism == "HERMIT":
        database.create_index("idx_target", table_name, "target",
                              method=IndexMethod.HERMIT, host_column="host")
    elif mechanism == "Baseline":
        database.create_index("idx_target", table_name, "target",
                              method=IndexMethod.BTREE)
    else:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; use one of {MECHANISMS}"
        )
    return database


def _split_columns(workload: str, base_rows: int, insert_rows: int,
                   seed: int) -> tuple[dict, dict]:
    """(base columns, insert columns) drawn from one workload generation."""
    total = base_rows + insert_rows
    targets, hosts = _workload_columns(workload, total, seed)
    pks = np.arange(total, dtype=np.float64)
    base = {
        "pk": pks[:base_rows],
        "host": np.asarray(hosts[:base_rows], dtype=np.float64),
        "target": np.asarray(targets[:base_rows], dtype=np.float64),
    }
    tail = {
        "pk": pks[base_rows:],
        "host": np.asarray(hosts[base_rows:], dtype=np.float64),
        "target": np.asarray(targets[base_rows:], dtype=np.float64),
    }
    return base, tail


def _verify_predicates(targets: np.ndarray) -> list[tuple[float, float]]:
    """Range predicates spread across the target domain (plus a point probe)."""
    low, high = float(np.min(targets)), float(np.max(targets))
    span = max(high - low, 1.0)
    edges = np.linspace(low, high, _VERIFY_RANGES + 1)
    predicates = [(float(edges[i]), float(edges[i] + 0.1 * span))
                  for i in range(_VERIFY_RANGES)]
    middle = float(targets[len(targets) // 2])
    predicates.append((middle, middle))
    return predicates


def measure_write_path(workload: str, mechanism: str, base_rows: int,
                       insert_rows: int, rounds: int,
                       pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                       seed: int = 42) -> dict:
    """Race the per-row loop against one batched ``insert_many``.

    Every round both sides start from identical, freshly built databases
    and insert identical rows; only the inserts are timed, and the scalar
    side's row dictionaries are materialised once up front so the race
    times the write paths, not dict construction.  The databases of the
    last round are then compared.
    """
    base_columns, insert_columns = _split_columns(workload, base_rows,
                                                  insert_rows, seed)
    table_name = f"writepath_{workload}"
    names = list(insert_columns)
    value_lists = [insert_columns[name].tolist() for name in names]
    rows = [dict(zip(names, values)) for values in zip(*value_lists)]
    databases: dict[str, Database] = {}

    def fresh(side: str) -> Database:
        databases[side] = build_write_database(table_name, mechanism,
                                               base_columns, pointer_scheme)
        # Each side starts with the set-up's garbage collected: the batched
        # side is one call of a few tens of ms, and a full collection owed
        # to the objects allocated above would otherwise land inside it or
        # not depending on allocation counts nobody controls.
        gc.collect()
        return databases[side]

    def scalar() -> float:
        database = fresh("scalar")
        started = time.perf_counter()
        for row in rows:
            database.insert(table_name, row)
        return time.perf_counter() - started

    def batched() -> float:
        database = fresh("batched")
        started = time.perf_counter()
        database.insert_many(table_name, insert_columns)
        return time.perf_counter() - started

    paired = paired_ratio(batched, scalar, rounds)

    scalar_db, batched_db = databases["scalar"], databases["batched"]
    agree = (scalar_db.catalog.table_entry(table_name).primary_index.num_entries
             == batched_db.catalog.table_entry(table_name)
             .primary_index.num_entries
             == base_rows + insert_rows)
    total_results = 0
    all_targets = np.concatenate([base_columns["target"],
                                  insert_columns["target"]])
    for low, high in _verify_predicates(all_targets):
        request = QueryRequest.range(table_name, "target", low, high)
        scalar_locations = scalar_db.execute(request).locations
        batched_locations = batched_db.execute(request).locations
        agree = agree and np.array_equal(scalar_locations, batched_locations)
        total_results += len(batched_locations)

    return {
        "workload": workload,
        "mechanism": mechanism,
        "pointer_scheme": pointer_scheme.value,
        "base_rows": base_rows,
        "insert_rows": insert_rows,
        "speedup_batched": paired.ratio,
        "total_results": total_results,
        "results_agree": bool(agree),
        **paired.as_dict("batched_seconds", "scalar_seconds"),
    }


def writepath_measurements(insert_rows: int, rounds: int,
                           workloads=WORKLOADS,
                           pointer_scheme: PointerScheme =
                           PointerScheme.PHYSICAL) -> list[dict]:
    """Measure every workload × mechanism combination.

    The table is pre-loaded a quarter full (``insert_rows // 4`` rows, at
    least 1,000) before the indexes are built, so the race measures
    mid-life maintenance rather than first-touch loading.
    """
    base_rows = max(1_000, insert_rows // 4)
    return [measure_write_path(workload, mechanism, base_rows, insert_rows,
                               rounds, pointer_scheme=pointer_scheme)
            for workload in workloads for mechanism in MECHANISMS]
