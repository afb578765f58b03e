"""Figure 24 — Hermit in a disk-based RDBMS (PostgreSQL stand-in, Sensor).

The paper integrates Hermit into PostgreSQL (physical pointers, page-based
B+-tree behind a buffer pool) and finds: (a) Hermit's range lookups are ~30%
slower than the native secondary index at 1% selectivity with the gap
shrinking at higher selectivities, and (b) the TRS-Tree phase is negligible —
the time goes to the host-index probe and to validating false positives
against the heap.

This reproduction runs the same protocol on the simulated disk substrate:
heap file + paged B+-trees behind a buffer pool, with throughput reported
over CPU time plus charged I/O latency (see ``repro.storage.disk``).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import FigureData
from repro.bench.report import format_figure, format_table
from repro.bench.timing import SimulatedClock, scaled
from repro.core.config import TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.index.base import KeyRange
from repro.index.paged_bptree import PagedBPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap_file import HeapFile
from repro.storage.schema import numeric_schema
from repro.workloads.queries import range_queries
from repro.workloads.sensor import generate_sensor, sensor_column

SELECTIVITIES = [0.01, 0.025, 0.05, 0.075, 0.10]
NUM_TUPLES = 8_000
QUERIES_PER_POINT = 10
TARGET = sensor_column(0)
HOST = "average"


class DiskSetup:
    """Sensor data stored in a heap file with paged host/secondary indexes."""

    def __init__(self, num_tuples: int) -> None:
        dataset = generate_sensor(num_tuples=num_tuples)
        self.dataset = dataset
        schema = numeric_schema("sensor_disk", ["ts", HOST, TARGET],
                                primary_key="ts")
        self.disk = DiskManager()
        self.pool = BufferPool(self.disk, capacity=4096)
        self.heap = HeapFile(schema, self.pool)
        self.host_index = PagedBPlusTree(self.pool)
        self.secondary_index = PagedBPlusTree(self.pool)
        targets = dataset.columns[TARGET]
        hosts = dataset.columns[HOST]
        locations = []
        for i in range(len(targets)):
            location = self.heap.insert({
                "ts": float(i), HOST: float(hosts[i]), TARGET: float(targets[i]),
            })
            locations.append(location)
            self.host_index.insert(float(hosts[i]), location)
            self.secondary_index.insert(float(targets[i]), location)
        self.trs_tree = TRSTree(TRSTreeConfig())
        self.trs_tree.build(targets, hosts, locations)
        self.domain = (float(targets.min()), float(targets.max()))

    def hermit_lookup(self, low: float, high: float) -> tuple[list[int], dict]:
        """Hermit's 4-step lookup on the disk substrate, with phase timing."""
        phases = {}
        clock = SimulatedClock(self.disk)
        clock.start()
        trs = self.trs_tree.lookup(KeyRange(low, high))
        clock.stop()
        phases["TRS-Tree"] = clock.total_seconds

        clock = SimulatedClock(self.disk)
        clock.start()
        candidates = set(
            self.host_index.range_search_many_array(trs.host_ranges).tolist())
        candidates.update(int(t) for t in trs.outlier_tids)
        clock.stop()
        phases["Index"] = clock.total_seconds

        clock = SimulatedClock(self.disk)
        clock.start()
        matches = [loc for loc in candidates
                   if low <= self.heap.value(loc, TARGET) <= high]
        clock.stop()
        phases["Validation"] = clock.total_seconds
        return matches, phases

    def baseline_lookup(self, low: float, high: float) -> tuple[list[int], dict]:
        """The native secondary-index lookup on the disk substrate."""
        phases = {}
        clock = SimulatedClock(self.disk)
        clock.start()
        locations = self.secondary_index.range_search(KeyRange(low, high))
        clock.stop()
        phases["Index"] = clock.total_seconds

        clock = SimulatedClock(self.disk)
        clock.start()
        for location in locations:
            self.heap.value(location, TARGET)
        clock.stop()
        phases["Heap"] = clock.total_seconds
        return locations, phases


@pytest.fixture(scope="module")
def disk_setup():
    return DiskSetup(scaled(NUM_TUPLES))


@pytest.mark.figure("fig24")
@pytest.mark.parametrize("mechanism", ["HERMIT", "Baseline"])
def test_fig24_disk_range_benchmark(benchmark, disk_setup, mechanism):
    queries = range_queries(disk_setup.domain, 0.025, count=5, seed=24)
    lookup = (disk_setup.hermit_lookup if mechanism == "HERMIT"
              else disk_setup.baseline_lookup)
    results = benchmark.pedantic(
        lambda: [lookup(q.low, q.high) for q in queries], rounds=2, iterations=1)
    assert len(results) == 5


@pytest.mark.figure("fig24")
def test_fig24_report_disk_throughput_and_breakdown(benchmark, disk_setup):
    def sweep():
        figure = FigureData("Figure 24a", "selectivity", "ops/s (simulated)")
        breakdown_rows = []
        for selectivity in SELECTIVITIES:
            queries = range_queries(disk_setup.domain, selectivity,
                                    count=QUERIES_PER_POINT, seed=24)
            for label, lookup in (("HERMIT", disk_setup.hermit_lookup),
                                  ("Baseline", disk_setup.baseline_lookup)):
                expected = None
                total_seconds = 0.0
                phase_totals: dict[str, float] = {}
                for query in queries:
                    matches, phases = lookup(query.low, query.high)
                    total_seconds += sum(phases.values())
                    for phase, seconds in phases.items():
                        phase_totals[phase] = phase_totals.get(phase, 0) + seconds
                    if expected is None:
                        expected = len(matches)
                ops = len(queries) / total_seconds if total_seconds else 0.0
                figure.add_point(label, selectivity, ops)
                if selectivity == SELECTIVITIES[0]:
                    total = sum(phase_totals.values()) or 1.0
                    breakdown_rows.append(
                        [label] + [f"{phase}: {seconds / total:.2f}"
                                   for phase, seconds in phase_totals.items()])
        return figure, breakdown_rows

    figure, breakdown_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    figure.notes.append("paper: HERMIT ~30% slower at 1% selectivity; gap shrinks")
    print()
    print(format_figure(figure))
    print(format_table(["mechanism", "phase 1", "phase 2", "phase 3"],
                       [row + [""] * (4 - len(row)) for row in breakdown_rows]))

    hermit = figure.series["HERMIT"].ys
    baseline = figure.series["Baseline"].ys
    # Hermit is slower but within a small factor, and both answer correctly.
    for h, b in zip(hermit, baseline):
        assert h > 0 and b > 0
        assert h * 4.0 >= b
    # The gap narrows as the selectivity grows (paper: 30% at 1%, shrinking).
    assert hermit[-1] / baseline[-1] >= 0.8 * (hermit[0] / baseline[0])
    # Correctness of the disk-substrate Hermit path against the native index.
    queries = range_queries(disk_setup.domain, 0.05, count=5, seed=99)
    for query in queries:
        hermit_result, _ = disk_setup.hermit_lookup(query.low, query.high)
        baseline_result, _ = disk_setup.baseline_lookup(query.low, query.high)
        assert set(hermit_result) == set(baseline_result)
