"""Shared builders for the per-figure benchmark scripts.

Every benchmark reproduces one table or figure of the paper.  The builders
here assemble the workload databases with *both* mechanisms (Hermit and the
conventional B+-tree baseline, plus optionally Correlation Maps) indexed on
the same target column, so each figure script only has to sweep its parameter
and print the series.  A figure reads a mechanism by its index name through
the database (``repro.bench.harness``), never by calling it directly.

Workload sizes are geometrically scaled down from the paper (which uses up to
20M tuples on a C++ engine); set the ``REPRO_SCALE`` environment variable to
scale them back up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import FigureData, run_query_batch, run_query_singles
from repro.bench.timing import scaled
from repro.core.config import TRSTreeConfig
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import RangePredicate
from repro.storage.identifiers import PointerScheme
from repro.workloads.queries import range_queries
from repro.workloads.sensor import generate_sensor, load_sensor, sensor_column
from repro.workloads.stock import generate_stock, high_column, load_stock
from repro.workloads.synthetic import generate_synthetic, load_synthetic

# Paper-default selectivities for the Stock/Sensor sweeps (1% .. 10%).
STOCK_SELECTIVITIES = [0.01, 0.025, 0.05, 0.075, 0.10]
# The paper sweeps 0.01% .. 0.1% on 20M-tuple Synthetic tables, i.e. 2k-20k
# result tuples per query.  The reproduction runs tables that are ~500x
# smaller, so the selectivities are scaled up to keep the per-query result
# cardinality (and therefore the relative cost structure of the lookup path)
# comparable; the x-axis label of the regenerated figures reflects this.
SYNTHETIC_SELECTIVITIES = [0.0025, 0.005, 0.01, 0.025, 0.05]
DEFAULT_QUERIES_PER_POINT = 30


@dataclass
class WorkloadSetup:
    """A built workload plus the indexes under comparison.

    ``indexes`` maps each series label ("HERMIT", "Baseline") to the name
    of its index on ``target_column``.
    """

    database: Database
    table_name: str
    target_column: str
    domain: tuple[float, float]
    indexes: dict[str, str] = field(default_factory=dict)
    dataset: object | None = None

    @property
    def table(self):
        """The base table object."""
        return self.database.table(self.table_name)

    def mechanism(self, label: str):
        """The mechanism behind a label's index (for its size and shape)."""
        return self.database.catalog.table_entry(self.table_name).indexes[
            self.indexes[label]].mechanism


def build_synthetic_setup(correlation: str = "linear", num_tuples: int = 20_000,
                          noise_fraction: float = 0.01,
                          pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                          trs_config: TRSTreeConfig | None = None,
                          seed: int = 42) -> WorkloadSetup:
    """Synthetic table with Hermit and Baseline indexes on ``colC``."""
    dataset = generate_synthetic(scaled(num_tuples), correlation,
                                 noise_fraction=noise_fraction, seed=seed)
    database = Database(pointer_scheme=pointer_scheme,
                        trs_config=trs_config or TRSTreeConfig())
    table_name = load_synthetic(database, dataset)
    database.create_index("hermit_colC", table_name, "colC",
                          method=IndexMethod.HERMIT, host_column="colB",
                          trs_config=trs_config)
    database.create_index("baseline_colC", table_name, "colC",
                          method=IndexMethod.BTREE)
    values = dataset.columns["colC"]
    return WorkloadSetup(
        database=database, table_name=table_name, target_column="colC",
        domain=(float(values.min()), float(values.max())),
        indexes={"HERMIT": "hermit_colC", "Baseline": "baseline_colC"},
        dataset=dataset,
    )


def build_stock_setup(num_stocks: int = 10, num_days: int = 4_000,
                      pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                      stock: int = 0) -> WorkloadSetup:
    """Stock table with Hermit and Baseline indexes on one high-price column."""
    dataset = generate_stock(num_stocks=num_stocks, num_days=scaled(num_days))
    database = Database(pointer_scheme=pointer_scheme)
    table_name = load_stock(database, dataset)
    column = high_column(stock)
    database.create_index(f"hermit_{column}", table_name, column,
                          method=IndexMethod.HERMIT,
                          host_column=f"low_{stock}")
    database.create_index(f"baseline_{column}", table_name, column,
                          method=IndexMethod.BTREE)
    values = dataset.columns[column]
    return WorkloadSetup(
        database=database, table_name=table_name, target_column=column,
        domain=(float(values.min()), float(values.max())),
        indexes={"HERMIT": f"hermit_{column}",
                 "Baseline": f"baseline_{column}"},
        dataset=dataset,
    )


def build_sensor_setup(num_tuples: int = 20_000, sensor: int = 0,
                       pointer_scheme: PointerScheme = PointerScheme.PHYSICAL
                       ) -> WorkloadSetup:
    """Sensor table with Hermit and Baseline indexes on one sensor column."""
    dataset = generate_sensor(num_tuples=scaled(num_tuples))
    database = Database(pointer_scheme=pointer_scheme)
    table_name = load_sensor(database, dataset)
    column = sensor_column(sensor)
    database.create_index(f"hermit_{column}", table_name, column,
                          method=IndexMethod.HERMIT,
                          host_column="average")
    database.create_index(f"baseline_{column}", table_name, column,
                          method=IndexMethod.BTREE)
    values = dataset.columns[column]
    return WorkloadSetup(
        database=database, table_name=table_name, target_column=column,
        domain=(float(values.min()), float(values.max())),
        indexes={"HERMIT": f"hermit_{column}",
                 "Baseline": f"baseline_{column}"},
        dataset=dataset,
    )


def single_lookups(setup: WorkloadSetup, label: str, queries):
    """A callable answering ``queries`` one ``Database.query_with`` at a time
    through the label's index — the single-request pipeline.  The
    predicates are built once, outside the callable."""
    database, table_name = setup.database, setup.table_name
    index_name = setup.indexes[label]
    predicates = [RangePredicate(setup.target_column, query.low, query.high)
                  for query in queries]

    def run():
        return [database.query_with(table_name, index_name, predicate)
                for predicate in predicates]

    return run


def selectivity_sweep(setup: WorkloadSetup, selectivities: list[float],
                      figure_name: str,
                      queries_per_point: int = DEFAULT_QUERIES_PER_POINT,
                      seed: int = 0) -> FigureData:
    """Throughput (K ops) of every mechanism across range-query selectivities."""
    figure = FigureData(figure_name, "selectivity", "Kops")
    for selectivity in selectivities:
        queries = range_queries(setup.domain, selectivity,
                                count=queries_per_point, seed=seed)
        for label, index_name in setup.indexes.items():
            batch = run_query_batch(setup.database, setup.table_name,
                                    index_name, queries)
            figure.add_point(label, selectivity, batch.throughput.kops)
    return figure


def breakdown_sweep(setup: WorkloadSetup, mechanism_label: str,
                    selectivities: list[float], figure_name: str,
                    queries_per_point: int = DEFAULT_QUERIES_PER_POINT,
                    seed: int = 0) -> FigureData:
    """Per-phase time fractions of one mechanism across selectivities.

    Measured through :func:`~repro.bench.harness.run_query_singles` — one
    lookup at a time, the paper's protocol for its breakdown figures — in
    steady state: the queries of the widest selectivity run once, unplotted,
    first, so the one-off flatten of the B+-trees' flat views (paid by the
    first ~n entries of single reads) does not land in one point's share.
    """
    figure = FigureData(figure_name, "selectivity", "fraction of time")
    index = (setup.database, setup.table_name, setup.indexes[mechanism_label])
    run_query_singles(*index, range_queries(
        setup.domain, max(selectivities), count=queries_per_point, seed=seed))
    for selectivity in selectivities:
        queries = range_queries(setup.domain, selectivity,
                                count=queries_per_point, seed=seed)
        batch = run_query_singles(*index, queries)
        for phase, fraction in batch.breakdown.fractions().items():
            figure.add_point(phase, selectivity, fraction)
    return figure


def assert_within_factor(slower: float, faster: float, factor: float) -> None:
    """Assert ``slower`` is no worse than ``faster`` divided by ``factor``.

    Used for the qualitative "shape" checks: e.g. Hermit's range-query
    throughput stays within a small factor of the baseline.
    """
    assert slower > 0, "throughput must be positive"
    assert slower * factor >= faster, (
        f"expected within {factor}x, got {slower:.3f} vs {faster:.3f}"
    )


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, ignoring non-positive entries."""
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return float(np.exp(np.mean(np.log(positives))))
