"""``Database.reorganize()`` tests and end-to-end integration scenarios."""

import sys
import threading

import numpy as np
import pytest

from repro.cache.result_cache import ResultCacheConfig
from repro.core.trs_tree import LeafTable
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.storage.identifiers import PointerScheme
from repro.workloads.sensor import generate_sensor, load_sensor, sensor_column
from repro.workloads.stock import generate_stock, high_column, load_stock
from repro.workloads.synthetic import generate_synthetic, load_synthetic

from reference import assert_locations, scan_locations


def hermit_database(num_tuples=2000, correlation="linear", noise=0.01, seed=0,
                    scheme=PointerScheme.PHYSICAL, cache=None):
    dataset = generate_synthetic(num_tuples, correlation, noise_fraction=noise,
                                 seed=seed)
    database = Database(pointer_scheme=scheme, result_cache=cache)
    table_name = load_synthetic(database, dataset)
    entry = database.create_index("idx_c", table_name, "colC",
                                  method=IndexMethod.HERMIT, host_column="colB")
    return database, table_name, entry.mechanism


def flood_with_outliers(database, table_name, count=800, seed=1):
    rng = np.random.default_rng(seed)
    for i in range(count):
        database.insert(table_name, {
            "colA": 5e7 + i,
            "colB": float(rng.uniform(0, 2e6)),
            "colC": float(rng.uniform(0, 1e6)),
            "colD": 0.0,
        })


class TestDatabaseReorganize:
    def test_rebuilds_every_flagged_node(self):
        database, table_name, hermit = hermit_database()
        flood_with_outliers(database, table_name)
        assert hermit.pending_reorganizations > 0
        assert database.reorganize() > 0
        assert hermit.pending_reorganizations == 0
        assert database.reorganize() == 0
        predicate = RangePredicate("colC", 0.0, 500_000.0)
        indexed = database.execute(QueryRequest.of(table_name, predicate))
        scanned = scan_locations(database.table(table_name), predicate)
        assert_locations(indexed, scanned)

    def test_a_cached_answer_stays_a_hit(self):
        """A rebuild changes no answer, so it moves no data epoch: the
        cached result is still served, and still exact."""
        database, table_name, _ = hermit_database(
            cache=ResultCacheConfig(admission=False))
        flood_with_outliers(database, table_name)
        request = QueryRequest.range(table_name, "colC", 200_000.0, 400_000.0)
        first = database.execute(request)
        assert first.plan is not None
        data_epoch = database.catalog.table_entry(table_name).data_epoch
        hits = database.result_cache_info().hits
        assert database.reorganize() > 0
        assert database.catalog.table_entry(table_name).data_epoch \
            == data_epoch
        again = database.execute(request)
        assert again.plan is None
        assert database.result_cache_info().hits == hits + 1
        assert again.locations.tolist() == first.locations.tolist()
        assert_locations(again, scan_locations(database.table(table_name),
                                               request.predicates[0]))


class TestReadsBesideReorganize:
    """A read that arrives while a pass installs a rebuild.

    ``LeafTable.replace`` is patched to start an ``execute_many`` on a
    second thread and give it a short while before the install goes on.
    Through ``Database.reorganize()`` the read waits for the whole pass
    and answers exactly; calling the mechanism without the lock (the
    planted defect) lets it see the outlier buffer already rebuilt and
    the leaves not yet replaced, and it misses rows.
    """

    PAUSE_SECONDS = 0.5

    def paused_pass(self, monkeypatch, scheme, reorganize):
        database, table_name, hermit = hermit_database(scheme=scheme)
        rng = np.random.default_rng(3)
        targets = rng.uniform(0.0, 1e6, 800)
        # Half the new rows on a second line a rebuild can fit, half noise.
        hosts = np.where(rng.random(800) < 0.5, 3e6 - 2.0 * targets,
                         rng.uniform(0.0, 2e6, 800))
        database.insert_many(table_name, {
            "colA": 1e7 + np.arange(800.0), "colB": hosts, "colC": targets,
            "colD": np.zeros(800)})
        assert hermit.pending_reorganizations > 0
        edges = np.linspace(-1e5, 1.1e6, 65)
        requests = [QueryRequest.range(table_name, "colC", low, high)
                    for low, high in zip(edges[:-1].tolist(),
                                         edges[1:].tolist())]
        table = database.table(table_name)
        expected = [scan_locations(table, request.predicates[0])
                    for request in requests]
        answers, errors, waited, readers = [], [], [], []

        def read():
            try:
                answers.append(database.execute_many(requests))
            except Exception as error:  # noqa: BLE001 - the defect's symptom
                errors.append(error)

        install = LeafTable.replace

        def paused_install(leaves, *args):
            reader = threading.Thread(target=read)
            reader.start()
            readers.append(reader)
            reader.join(self.PAUSE_SECONDS)
            waited.append(reader.is_alive())
            install(leaves, *args)

        monkeypatch.setattr(LeafTable, "replace", paused_install)
        rebuilt = reorganize(database, hermit)
        for reader in readers:
            reader.join(timeout=30.0)
            assert not reader.is_alive()
        assert rebuilt == len(readers) > 0
        short = sum(len(answer.locations) < len(scanned)
                    for batch in answers
                    for answer, scanned in zip(batch, expected))
        return answers, errors, waited, expected, short

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_reads_wait_for_the_pass_and_never_miss(self, monkeypatch,
                                                    scheme):
        answers, errors, waited, expected, short = self.paused_pass(
            monkeypatch, scheme, lambda database, hermit: database.reorganize())
        assert errors == [] and short == 0
        assert all(waited)
        for batch in answers:
            for answer, scanned in zip(batch, expected):
                assert_locations(answer, scanned)

    def test_the_mechanism_without_the_lock_is_caught(self, monkeypatch):
        _, errors, waited, _, short = self.paused_pass(
            monkeypatch, PointerScheme.PHYSICAL,
            lambda database, hermit: hermit.reorganize())
        assert not any(waited)
        assert short > 0 or any(isinstance(error, IndexError)
                                for error in errors)

    def test_readers_beside_writes_and_passes_never_miss(self):
        """Time-bounded stress: more reader threads than cores, a short
        switch interval, and a writer alternating off-band batches with
        ``Database.reorganize()``.  Each reader compares its batch with a
        scan taken under the same read epoch."""
        database, table_name, _ = hermit_database(num_tuples=3000,
                                                  correlation="sigmoid")
        table = database.table(table_name)
        edges = np.linspace(0.0, 1e6, 33)
        requests = [QueryRequest.range(table_name, "colC", low, high)
                    for low, high in zip(edges[:-1].tolist(),
                                         edges[1:].tolist())]
        rng = np.random.default_rng(12)
        done = threading.Event()
        rebuilt, reads, failures = [], [], []

        def write():
            try:
                for batch in range(8):
                    targets = rng.uniform(0.0, 1e6, 150)
                    database.insert_many(table_name, {
                        "colA": 1e7 + 150.0 * batch + np.arange(150.0),
                        "colB": rng.uniform(0.0, 2e6, 150),
                        "colC": targets, "colD": np.zeros(150)})
                    rebuilt.append(database.reorganize())
            except Exception as error:  # noqa: BLE001 - fail the test below
                failures.append(error)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    with database.epochs.read():
                        answers = database.execute_many(requests)
                        expected = [scan_locations(table, r.predicates[0])
                                    for r in requests]
                    reads.append(1)
                    failures.extend(
                        (answer.locations.tolist(), scanned)
                        for answer, scanned in zip(answers, expected)
                        if answer.locations.tolist() != scanned)
            except Exception as error:  # noqa: BLE001 - fail the test below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert sum(rebuilt) > 0 and reads


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
        database.reorganize()
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

    def assert_exact(self, database, table_name):
        slots, values = database.table(table_name).project(["colC"])
        expected = [sorted(slots[(values >= low) & (values <= high)].tolist())
                    for low, high in self.RANGES]
        assert all(len(found) > 0 for found in expected)
        predicates = [RangePredicate("colC", low, high)
                      for low, high in self.RANGES]
        scalar = [database.query_with(table_name, "idx_c", predicate)
                  .locations.tolist() for predicate in predicates]
        batch = [result.locations for result in
                 database.query_with_many(table_name, "idx_c", predicates)]
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
        self.assert_exact(database, table_name)
        assert hermit.pending_reorganizations > 0
        assert database.reorganize() > 0
        self.assert_exact(database, table_name)

    @pytest.mark.parametrize("scheme", [PointerScheme.PHYSICAL,
                                        PointerScheme.LOGICAL])
    def test_reorganize_children(self, scheme):
        database, table_name, hermit = hermit_database(
            correlation="sigmoid", scheme=scheme)
        assert hermit.trs_tree.num_leaves > 1
        self.add_out_of_domain_rows(database, table_name)
        last = hermit.trs_tree.config.node_fanout - 1
        hermit.reorganize_children([0, last])
        self.assert_exact(database, table_name)
