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

It lives in ``repro.bench`` so the full-scale benchmark script
(``benchmarks/bench_writepath_vectorized.py``) and the tier-1 bench-smoke
test share one implementation.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.hotpath import WORKLOADS, _workload_columns
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

MECHANISMS = ("HERMIT", "Baseline")
_VERIFY_RANGES = 5


@dataclass
class WritepathMeasurement:
    """Scalar vs. batched insert throughput of one mechanism on one workload."""

    workload: str
    mechanism: str
    pointer_scheme: str
    base_rows: int
    insert_rows: int
    scalar_seconds: float
    batched_seconds: float
    total_results: int
    results_agree: bool

    @property
    def scalar_kops(self) -> float:
        """Per-row insert throughput in thousands of rows per second."""
        return self._kops(self.scalar_seconds)

    @property
    def batched_kops(self) -> float:
        """Batched insert throughput in thousands of rows per second."""
        return self._kops(self.batched_seconds)

    @property
    def speedup_batched(self) -> float:
        """Batched-path speedup over the per-row scalar loop."""
        if self.batched_seconds <= 0:
            return float("inf")
        return self.scalar_seconds / self.batched_seconds

    def _kops(self, seconds: float) -> float:
        if seconds <= 0:
            return 0.0
        return self.insert_rows / seconds / 1e3

    def as_dict(self) -> dict:
        """JSON-ready representation (used for the perf trajectory)."""
        return {
            "workload": self.workload,
            "mechanism": self.mechanism,
            "pointer_scheme": self.pointer_scheme,
            "base_rows": self.base_rows,
            "insert_rows": self.insert_rows,
            "scalar_kops": self.scalar_kops,
            "batched_kops": self.batched_kops,
            "speedup_batched": self.speedup_batched,
            "total_results": self.total_results,
            "results_agree": self.results_agree,
        }


def build_write_database(workload: str, mechanism: str, base_columns: dict,
                         pointer_scheme: PointerScheme) -> tuple[Database, str]:
    """One database primed for the insert race.

    The database holds the workload's base rows, a pre-existing complete
    B+-tree index on the host column, and the mechanism under test on the
    target column — the paper's Figure 22 starting state reduced to a single
    new index.
    """
    table_name = f"writepath_{workload}"
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
    return database, table_name


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
                       insert_rows: int,
                       pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                       seed: int = 42) -> WritepathMeasurement:
    """Race the per-row loop against one batched ``insert_many``.

    Both sides start from identical databases and insert identical rows; the
    scalar side's row dictionaries are materialised before the clock starts
    so the race times the write paths, not dict construction.
    """
    base_columns, insert_columns = _split_columns(workload, base_rows,
                                                  insert_rows, seed)
    scalar_db, table_name = build_write_database(workload, mechanism,
                                                 base_columns, pointer_scheme)
    batched_db, _ = build_write_database(workload, mechanism, base_columns,
                                         pointer_scheme)

    names = list(insert_columns)
    value_lists = [insert_columns[name].tolist() for name in names]
    rows = [dict(zip(names, values)) for values in zip(*value_lists)]

    # Each side starts with the set-up's garbage collected: the batched
    # side is one call of a few tens of ms, and a full collection owed to
    # the objects allocated above would otherwise land inside it or not
    # depending on allocation counts nobody controls.
    gc.collect()
    started = time.perf_counter()
    for row in rows:
        scalar_db.insert(table_name, row)
    scalar_seconds = time.perf_counter() - started

    gc.collect()
    started = time.perf_counter()
    batched_db.insert_many(table_name, insert_columns)
    batched_seconds = time.perf_counter() - started

    scalar_entry = scalar_db.catalog.table_entry(table_name)
    batched_entry = batched_db.catalog.table_entry(table_name)
    agree = (scalar_entry.primary_index.num_entries
             == batched_entry.primary_index.num_entries
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

    return WritepathMeasurement(
        workload=workload,
        mechanism=mechanism,
        pointer_scheme=pointer_scheme.value,
        base_rows=base_rows,
        insert_rows=insert_rows,
        scalar_seconds=scalar_seconds,
        batched_seconds=batched_seconds,
        total_results=total_results,
        results_agree=agree,
    )


def run_writepath_suite(workloads=WORKLOADS, insert_rows: int = 20_000,
                        base_rows: int | None = None,
                        pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                        seed: int = 42) -> list[WritepathMeasurement]:
    """Measure every workload × mechanism combination.

    Args:
        workloads: Workload names (see :data:`repro.bench.hotpath.WORKLOADS`).
        insert_rows: Number of rows raced through both write paths.
        base_rows: Rows pre-loaded before the indexes are built; defaults to
            ``insert_rows // 4`` (a quarter-full table, so the race measures
            mid-life maintenance rather than first-touch bulk loading).
        pointer_scheme: Tuple-identifier scheme for all indexes.
        seed: Data-generation seed.
    """
    if base_rows is None:
        base_rows = max(1_000, insert_rows // 4)
    measurements: list[WritepathMeasurement] = []
    for workload in workloads:
        for mechanism in MECHANISMS:
            measurements.append(measure_write_path(
                workload, mechanism, base_rows, insert_rows,
                pointer_scheme=pointer_scheme, seed=seed,
            ))
    return measurements
