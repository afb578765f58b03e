"""Unit tests for the Synthetic, Stock and Sensor workload generators."""

import numpy as np
import pytest

from repro.correlation.discovery import pearson_coefficient, spearman_coefficient
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.workloads.queries import mixed_queries, point_queries, range_queries
from repro.workloads.sensor import generate_sensor, load_sensor, sensor_column
from repro.workloads.stock import (
    dow_sp_series,
    generate_stock,
    high_column,
    load_stock,
    low_column,
)
from repro.workloads.synthetic import correlation_for, generate_synthetic, load_synthetic


class TestSyntheticWorkload:
    def test_linear_correlation_holds_outside_noise(self):
        dataset = generate_synthetic(5000, "linear", noise_fraction=0.05)
        clean = ~dataset.noise_mask
        col_b = dataset.columns["colB"][clean]
        col_c = dataset.columns["colC"][clean]
        assert np.allclose(col_b, 2.0 * col_c + 10.0)
        assert dataset.noise_mask.sum() == pytest.approx(250, abs=1)

    def test_sigmoid_correlation_is_monotonic(self):
        dataset = generate_synthetic(3000, "sigmoid", noise_fraction=0.0)
        order = np.argsort(dataset.columns["colC"])
        sorted_b = dataset.columns["colB"][order]
        assert np.all(np.diff(sorted_b) >= -1e-9)
        assert spearman_coefficient(dataset.columns["colC"],
                                    dataset.columns["colB"]) > 0.99

    def test_unknown_correlation_rejected(self):
        with pytest.raises(ValueError):
            correlation_for("cubic")
        with pytest.raises(ValueError):
            generate_synthetic(10, "cubic")

    def test_determinism(self):
        first = generate_synthetic(100, "linear", seed=3)
        second = generate_synthetic(100, "linear", seed=3)
        assert np.array_equal(first.columns["colC"], second.columns["colC"])
        assert np.array_equal(first.columns["colB"], second.columns["colB"])

    def test_load_creates_preexisting_index(self):
        database = Database()
        table_name = load_synthetic(database, generate_synthetic(500, "linear"))
        entries = database.catalog.indexes_on(table_name)
        assert len(entries) == 1
        assert entries[0].is_preexisting
        assert entries[0].column == "colB"
        assert database.table(table_name).num_rows == 500

    def test_extra_correlated_columns(self):
        database = Database()
        dataset = generate_synthetic(500, "linear")
        table_name = load_synthetic(database, dataset, extra_correlated_columns=3)
        table = database.table(table_name)
        assert "colE2" in table.schema
        correlation = pearson_coefficient(table.column_array("colE0"),
                                          table.column_array("colB"))
        assert abs(correlation) > 0.99


class TestStockWorkload:
    def test_low_high_near_linear_with_outliers(self):
        dataset = generate_stock(num_stocks=3, num_days=2000,
                                 shock_probability=0.01)
        lows = dataset.columns[low_column(0)]
        highs = dataset.columns[high_column(0)]
        assert pearson_coefficient(lows, highs) > 0.95
        # Shock days produce violations of the usual few-percent spread.
        ratio = highs / lows
        assert (ratio > 1.3).sum() > 0
        assert dataset.num_tuples == 2000

    def test_all_prices_positive(self):
        dataset = generate_stock(num_stocks=2, num_days=500)
        for stock in range(2):
            assert np.all(dataset.columns[low_column(stock)] > 0)
            assert np.all(dataset.columns[high_column(stock)] > 0)

    def test_load_builds_one_index_per_low_column(self):
        database = Database()
        dataset = generate_stock(num_stocks=4, num_days=300)
        table_name = load_stock(database, dataset)
        entries = database.catalog.indexes_on(table_name)
        assert len(entries) == 4
        assert all(entry.is_preexisting for entry in entries)
        assert database.table(table_name).num_rows == 300

    def test_hermit_on_high_column_answers_queries(self):
        database = Database()
        dataset = generate_stock(num_stocks=2, num_days=1000)
        table_name = load_stock(database, dataset)
        database.create_index("idx_high_0", table_name, high_column(0),
                              method=IndexMethod.AUTO)
        highs = dataset.columns[high_column(0)]
        low, high = np.quantile(highs, [0.4, 0.6])
        result = database.execute(QueryRequest.of(
            table_name, RangePredicate(high_column(0), low, high)))
        expected = set(np.flatnonzero((highs >= low) & (highs <= high)))
        assert set(result.locations) == expected

    def test_dow_sp_series_are_correlated(self):
        sp500, dow = dow_sp_series(2000)
        assert len(sp500) == len(dow) == 2000
        assert pearson_coefficient(sp500, dow) > 0.9


class TestSensorWorkload:
    def test_sensor_average_correlation_is_monotonic_nonlinear(self):
        dataset = generate_sensor(num_tuples=5000, noise_scale=0.5,
                                  glitch_fraction=0.0)
        average = dataset.columns["average"]
        reading = dataset.columns[sensor_column(0)]
        assert spearman_coefficient(average, reading) > 0.95
        # Non-linearity: adding a quadratic term to a straight-line fit
        # reduces the residual noticeably, i.e. the correlation has genuine
        # curvature for the TRS-Tree to chase.
        linear_residual = reading - np.polyval(np.polyfit(average, reading, 1),
                                               average)
        quadratic_residual = reading - np.polyval(np.polyfit(average, reading, 2),
                                                  average)
        linear_rms = float(np.sqrt((linear_residual ** 2).mean()))
        quadratic_rms = float(np.sqrt((quadratic_residual ** 2).mean()))
        assert quadratic_rms < 0.9 * linear_rms

    def test_average_is_row_mean(self):
        dataset = generate_sensor(num_tuples=100)
        readings = np.vstack([dataset.columns[sensor_column(i)]
                              for i in range(dataset.num_sensors)])
        assert np.allclose(dataset.columns["average"], readings.mean(axis=0))

    def test_load_creates_average_index(self):
        database = Database()
        table_name = load_sensor(database, generate_sensor(num_tuples=500))
        entries = database.catalog.indexes_on(table_name)
        assert [entry.column for entry in entries] == ["average"]

    def test_hermit_on_sensor_column(self):
        database = Database()
        dataset = generate_sensor(num_tuples=3000, noise_scale=0.5)
        table_name = load_sensor(database, dataset)
        database.create_index("idx_s3", table_name, sensor_column(3),
                              method=IndexMethod.HERMIT, host_column="average")
        readings = dataset.columns[sensor_column(3)]
        low, high = np.quantile(readings, [0.45, 0.55])
        result = database.execute(QueryRequest.of(
            table_name, RangePredicate(sensor_column(3), low, high)))
        expected = set(np.flatnonzero((readings >= low) & (readings <= high)))
        assert set(result.locations) == expected


class TestQueryGenerators:
    def test_range_queries_have_requested_width(self):
        queries = range_queries((0.0, 1000.0), selectivity=0.1, count=20, seed=1)
        assert len(queries) == 20
        for query in queries:
            assert query.high - query.low == pytest.approx(100.0)
            assert 0.0 <= query.low <= query.high <= 1000.0

    def test_point_queries_come_from_values(self):
        values = np.arange(100.0)
        points = point_queries(values, count=10, seed=2)
        assert len(points) == 10
        assert all(point in values for point in points)
        assert point_queries(np.array([]), 5) == []

    def test_mixed_queries(self):
        queries = mixed_queries((0.0, 100.0), np.arange(100.0), selectivity=0.05,
                                count=20, point_fraction=0.5, seed=3)
        assert len(queries) == 20
        points = [q for q in queries if q.low == q.high]
        assert len(points) == 10

    def test_determinism(self):
        first = range_queries((0.0, 10.0), 0.1, 5, seed=4)
        second = range_queries((0.0, 10.0), 0.1, 5, seed=4)
        assert first == second
