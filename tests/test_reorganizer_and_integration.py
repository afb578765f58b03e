"""Background reorganizer tests and end-to-end integration scenarios."""

import time

import numpy as np
import pytest

from repro.core.reorganize import BackgroundReorganizer
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.storage.identifiers import PointerScheme
from repro.workloads.sensor import generate_sensor, load_sensor, sensor_column
from repro.workloads.stock import generate_stock, high_column, load_stock
from repro.workloads.synthetic import generate_synthetic, load_synthetic

from reference import assert_locations, scan_locations


def hermit_database(num_tuples=2000, correlation="linear", noise=0.01, seed=0,
                    scheme=PointerScheme.PHYSICAL):
    dataset = generate_synthetic(num_tuples, correlation, noise_fraction=noise,
                                 seed=seed)
    database = Database(pointer_scheme=scheme)
    table_name = load_synthetic(database, dataset)
    entry = database.create_index("idx_c", table_name, "colC",
                                  method=IndexMethod.HERMIT, host_column="colB")
    return database, table_name, entry.mechanism


class TestBackgroundReorganizer:
    def flood_with_outliers(self, database, table_name, count=800, seed=1):
        rng = np.random.default_rng(seed)
        for i in range(count):
            database.insert(table_name, {
                "colA": 5e7 + i,
                "colB": float(rng.uniform(0, 2e6)),
                "colC": float(rng.uniform(0, 1e6)),
                "colD": 0.0,
            })

    def test_run_once_processes_candidates(self):
        database, table_name, hermit = hermit_database()
        self.flood_with_outliers(database, table_name)
        reorganizer = BackgroundReorganizer(hermit)
        assert hermit.pending_reorganizations > 0
        processed = reorganizer.run_once()
        assert processed > 0
        assert reorganizer.stats.passes == 1
        assert reorganizer.stats.candidates_processed == processed
        # Queries stay exact after reorganization.
        predicate = RangePredicate("colC", 0.0, 500_000.0)
        indexed = database.execute(QueryRequest.of(table_name, predicate))
        scanned = scan_locations(database.table(table_name), predicate)
        assert_locations(indexed, scanned)

    def test_background_thread_lifecycle(self):
        database, table_name, hermit = hermit_database(num_tuples=1000)
        self.flood_with_outliers(database, table_name, count=400, seed=2)
        reorganizer = BackgroundReorganizer(hermit, interval_seconds=0.01)
        with reorganizer:
            assert reorganizer.is_running
            deadline = time.time() + 5.0
            while hermit.pending_reorganizations and time.time() < deadline:
                time.sleep(0.01)
        assert not reorganizer.is_running
        assert reorganizer.stats.passes >= 1

    def test_start_is_idempotent(self):
        _, _, hermit = hermit_database(num_tuples=500)
        reorganizer = BackgroundReorganizer(hermit, interval_seconds=0.01)
        reorganizer.start()
        reorganizer.start()
        reorganizer.stop()
        reorganizer.stop()
        assert not reorganizer.is_running


class TestEndToEndScenarios:
    @pytest.mark.parametrize("correlation", ["linear", "sigmoid"])
    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_synthetic_queries_match_scan(self, correlation, scheme):
        database, table_name, _ = hermit_database(
            num_tuples=3000, correlation=correlation, noise=0.03, scheme=scheme)
        table = database.table(table_name)
        rng = np.random.default_rng(4)
        for _ in range(10):
            low = float(rng.uniform(0, 9e5))
            predicate = RangePredicate("colC", low, low + 5e4)
            assert_locations(
                database.execute(QueryRequest.of(table_name, predicate)),
                scan_locations(table, predicate))

    def test_stock_scenario_memory_and_correctness(self):
        database = Database()
        dataset = generate_stock(num_stocks=5, num_days=1500)
        table_name = load_stock(database, dataset)
        for stock in range(5):
            database.create_index(f"idx_high_{stock}", table_name,
                                  high_column(stock), method=IndexMethod.AUTO)
        report = database.memory_report(table_name)
        # Hermit's new indexes are small compared to the existing B+-trees.
        assert report.components["new_indexes"] < report.components[
            "existing_indexes"]
        table = database.table(table_name)
        highs = dataset.columns[high_column(2)]
        low, high = float(np.quantile(highs, 0.3)), float(np.quantile(highs, 0.5))
        predicate = RangePredicate(high_column(2), low, high)
        assert_locations(
            database.execute(QueryRequest.of(table_name, predicate)),
            scan_locations(table, predicate))

    def test_sensor_scenario(self):
        database = Database()
        dataset = generate_sensor(num_tuples=4000, noise_scale=0.5)
        table_name = load_sensor(database, dataset)
        database.create_index("idx_s7", table_name, sensor_column(7),
                              method=IndexMethod.HERMIT, host_column="average")
        table = database.table(table_name)
        readings = dataset.columns[sensor_column(7)]
        low, high = (float(np.quantile(readings, 0.2)),
                     float(np.quantile(readings, 0.4)))
        predicate = RangePredicate(sensor_column(7), low, high)
        indexed = database.execute(QueryRequest.of(table_name, predicate))
        assert_locations(indexed, scan_locations(table, predicate))
        assert indexed.breakdown.false_positive_ratio < 0.5

    def test_mixed_workload_with_maintenance(self):
        database, table_name, hermit = hermit_database(num_tuples=2000,
                                                       noise=0.02)
        table = database.table(table_name)
        rng = np.random.default_rng(6)
        live = [int(s) for s in table.live_slots()]
        for step in range(300):
            action = step % 3
            if action == 0:
                location = database.insert(table_name, {
                    "colA": 1e8 + step,
                    "colB": 2.0 * float(rng.uniform(0, 1e6)) + 10.0,
                    "colC": float(rng.uniform(0, 1e6)),
                    "colD": 0.0,
                })
                live.append(location)
            elif action == 1 and live:
                database.delete(table_name, live.pop(0))
            elif live:
                database.update(table_name, live[0],
                                {"colC": float(rng.uniform(0, 1e6))})
        if hermit.pending_reorganizations:
            hermit.reorganize()
        predicate = RangePredicate("colC", 200_000.0, 400_000.0)
        assert_locations(
            database.execute(QueryRequest.of(table_name, predicate)),
            scan_locations(table, predicate))

    def test_many_hermit_indexes_share_one_host(self):
        dataset = generate_synthetic(1500, "linear", noise_fraction=0.01, seed=7)
        database = Database()
        table_name = load_synthetic(database, dataset, extra_correlated_columns=3)
        for i in range(3):
            entry = database.create_index(f"idx_e{i}", table_name, f"colE{i}",
                                          method=IndexMethod.AUTO)
            assert entry.method is IndexMethod.HERMIT
        table = database.table(table_name)
        values = table.column_array("colE1")
        low, high = float(np.quantile(values, 0.1)), float(np.quantile(values, 0.3))
        predicate = RangePredicate("colE1", low, high)
        assert_locations(
            database.execute(QueryRequest.of(table_name, predicate)),
            scan_locations(table, predicate))


class TestReorganizeKeepsOutOfDomainRows:
    """Rows beyond the built target domain live in the edge leaves, which
    lookups and inserts treat as open-ended; a rebuild must re-read them."""

    RANGES = [(1.2e6, 1.3e6), (-3.0e5, -2.0e5), (9.0e5, 1.25e6),
              (-2.5e5, 1.0e5), (-1.0e9, 1.0e9)]

    def add_out_of_domain_rows(self, database, table_name, per_side=300):
        rng = np.random.default_rng(11)
        targets = np.concatenate([rng.uniform(1.1e6, 1.4e6, per_side),
                                  rng.uniform(-4.0e5, -1.0e5, per_side)])
        on_line = rng.random(targets.size) < 0.5
        hosts = np.where(on_line, 2.0 * targets + 10.0,
                         rng.uniform(0.0, 2.0e6, targets.size))
        database.insert_many(table_name, {
            "colA": 7e7 + np.arange(targets.size, dtype=np.float64),
            "colB": hosts, "colC": targets,
            "colD": np.zeros(targets.size),
        })

    def assert_exact(self, database, table_name, hermit):
        slots, values = database.table(table_name).project(["colC"])
        expected = [sorted(slots[(values >= low) & (values <= high)].tolist())
                    for low, high in self.RANGES]
        assert all(len(found) > 0 for found in expected)
        scalar = [sorted(np.asarray(hermit.lookup_range(low, high).locations)
                         .tolist()) for low, high in self.RANGES]
        batch = hermit.lookup_range_many(self.RANGES).locations_per_query
        planned = database.execute_many([
            QueryRequest.range(table_name, "colC", low, high)
            for low, high in self.RANGES
        ])
        assert scalar == expected
        assert [sorted(found.tolist()) for found in batch] == expected
        assert [result.locations.tolist() for result in planned] == expected

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    @pytest.mark.parametrize("correlation", ["linear", "sigmoid"])
    def test_reorganize(self, correlation, scheme):
        database, table_name, hermit = hermit_database(
            correlation=correlation, scheme=scheme)
        self.add_out_of_domain_rows(database, table_name)
        self.assert_exact(database, table_name, hermit)
        assert hermit.pending_reorganizations > 0
        assert hermit.reorganize() > 0
        self.assert_exact(database, table_name, hermit)

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_reorganize_children(self, scheme):
        database, table_name, hermit = hermit_database(
            correlation="sigmoid", scheme=scheme)
        assert hermit.trs_tree.num_leaves > 1
        self.add_out_of_domain_rows(database, table_name)
        last = hermit.trs_tree.config.node_fanout - 1
        hermit.reorganize_children([0, last])
        self.assert_exact(database, table_name, hermit)
