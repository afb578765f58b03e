"""Bare-mechanism workload setups for the mechanism-level benchmarks.

Builds one of the three paper workloads (Stock, Sensor, Synthetic-Linear)
as a bare table plus a Hermit and a Baseline mechanism over it — no
``Database``, no planner — so a benchmark can drive the mechanisms' own
``lookup_range`` / ``lookup_range_many`` and maintenance calls directly.
Shared by the sensor false-positive benchmark (``repro.bench.sensor_fp``),
the write-path benchmark (``repro.bench.writepath``) and the tier-1
equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.secondary import BaselineSecondaryIndex
from repro.core.config import TRSTreeConfig
from repro.core.hermit import HermitIndex
from repro.index.ordered import OrderedIndex
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.storage.table import Table
from repro.workloads.sensor import generate_sensor, sensor_column
from repro.workloads.stock import generate_stock, high_column, low_column
from repro.workloads.synthetic import generate_synthetic

WORKLOADS = ("stock", "sensor", "synthetic")


@dataclass
class HotpathSetup:
    """One built workload: base table plus both mechanisms."""

    workload: str
    table: Table
    hermit: HermitIndex
    baseline: BaselineSecondaryIndex
    domain: tuple[float, float]
    num_tuples: int

    @property
    def mechanisms(self) -> dict[str, object]:
        """Label → mechanism, as the figure helpers expose them."""
        return {"HERMIT": self.hermit, "Baseline": self.baseline}


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


def build_hotpath_setup(workload: str, num_tuples: int,
                        pointer_scheme: PointerScheme = PointerScheme.PHYSICAL,
                        trs_config: TRSTreeConfig | None = None,
                        seed: int = 42) -> HotpathSetup:
    """Build one workload table with Hermit and Baseline mechanisms.

    Args:
        workload: ``"stock"``, ``"sensor"`` or ``"synthetic"``.
        num_tuples: Number of rows.
        pointer_scheme: Tuple-identifier scheme for both mechanisms.
        trs_config: TRS-Tree parameter override.
        seed: Data-generation seed.
    """
    targets, hosts = _workload_columns(workload, num_tuples, seed)
    table = Table(numeric_schema(f"hotpath_{workload}",
                                 ["pk", "host", "target"], primary_key="pk"))
    table.insert_many({
        "pk": np.arange(num_tuples, dtype=np.float64),
        "host": np.asarray(hosts, dtype=np.float64),
        "target": np.asarray(targets, dtype=np.float64),
    })
    slots, pks, host_values = table.project(["pk", "host"])
    tids = slots if pointer_scheme is PointerScheme.PHYSICAL else pks

    host_index = OrderedIndex()
    host_index.insert_many(host_values, tids)

    primary = None
    if pointer_scheme.needs_primary_lookup:
        primary = OrderedIndex()
        primary.insert_many(pks, slots)

    hermit = HermitIndex(table, "target", "host", host_index,
                         primary_index=primary, pointer_scheme=pointer_scheme,
                         config=trs_config or TRSTreeConfig())
    hermit.build()
    baseline = BaselineSecondaryIndex(table, "target", primary_index=primary,
                                      pointer_scheme=pointer_scheme)
    baseline.build()
    return HotpathSetup(
        workload=workload, table=table, hermit=hermit, baseline=baseline,
        domain=(float(targets.min()), float(targets.max())),
        num_tuples=num_tuples,
    )
