"""Unit tests for correlation functions, discovery and the host advisor."""

import numpy as np
import pytest

from repro.correlation.advisor import HostColumnAdvisor
from repro.correlation.discovery import (
    CorrelationDiscoverer,
    pearson_coefficient,
    spearman_coefficient,
)
from repro.correlation.functions import (
    LinearFunction,
    PolynomialFunction,
    SigmoidFunction,
    SineFunction,
    inject_noise,
)
from repro.errors import CorrelationError
from repro.storage.schema import numeric_schema
from repro.storage.table import Table


class TestCorrelationFunctions:
    def test_linear(self):
        function = LinearFunction(slope=2.0, intercept=1.0)
        assert list(function(np.array([0.0, 1.0, 2.0]))) == [1.0, 3.0, 5.0]
        assert function.is_monotonic

    def test_sigmoid_monotonic_and_bounded(self):
        function = SigmoidFunction(midpoint=0.0, steepness=1.0, scale=10.0)
        values = function(np.linspace(-10, 10, 100))
        assert np.all(np.diff(values) >= 0)
        assert values.min() >= 0.0 and values.max() <= 10.0
        assert function.is_monotonic

    def test_sine_is_non_monotonic(self):
        function = SineFunction(amplitude=1.0, frequency=1.0)
        values = function(np.linspace(0, 10, 100))
        assert np.any(np.diff(values) < 0)
        assert not function.is_monotonic

    def test_polynomial(self):
        function = PolynomialFunction(coefficients=(1.0, 0.0, 2.0))
        assert list(function(np.array([0.0, 1.0, 2.0]))) == [1.0, 3.0, 9.0]
        assert not function.is_monotonic
        assert PolynomialFunction(coefficients=(0.0, 1.0)).is_monotonic


class TestInjectNoise:
    def test_fraction_of_values_perturbed(self):
        rng = np.random.default_rng(0)
        clean = np.zeros(1000)
        noisy, mask = inject_noise(clean, 0.1, noise_scale=10.0, rng=rng)
        assert mask.sum() == 100
        assert np.all(noisy[~mask] == 0.0)
        assert np.all(np.abs(noisy[mask]) >= 5.0)

    def test_zero_fraction_is_identity(self):
        rng = np.random.default_rng(0)
        clean = np.arange(10.0)
        noisy, mask = inject_noise(clean, 0.0, 1.0, rng)
        assert np.array_equal(noisy, clean)
        assert not mask.any()

    def test_empty_input(self):
        rng = np.random.default_rng(0)
        noisy, mask = inject_noise(np.array([]), 0.5, 1.0, rng)
        assert len(noisy) == 0 and len(mask) == 0

    def test_original_array_not_modified(self):
        rng = np.random.default_rng(0)
        clean = np.zeros(100)
        inject_noise(clean, 0.5, 10.0, rng)
        assert np.all(clean == 0.0)


class TestCoefficients:
    def test_pearson_perfect_linear(self):
        x = np.linspace(0, 10, 50)
        assert pearson_coefficient(x, 3 * x + 1) == pytest.approx(1.0)
        assert pearson_coefficient(x, -3 * x + 1) == pytest.approx(-1.0)

    def test_spearman_detects_monotonic_nonlinear(self):
        x = np.linspace(0.1, 10, 50)
        y = np.log(x)
        assert spearman_coefficient(x, y) == pytest.approx(1.0)
        assert pearson_coefficient(x, y) < 0.99

    def test_sine_has_low_spearman(self):
        x = np.linspace(0, 6 * np.pi, 500)
        assert abs(spearman_coefficient(x, np.sin(x))) < 0.3

    def test_constant_column_gives_zero(self):
        x = np.ones(10)
        y = np.arange(10.0)
        assert pearson_coefficient(x, y) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(CorrelationError):
            pearson_coefficient(np.arange(3.0), np.arange(4.0))
        with pytest.raises(CorrelationError):
            spearman_coefficient(np.arange(3.0), np.arange(4.0))

    def test_too_few_values_raises(self):
        with pytest.raises(CorrelationError):
            pearson_coefficient(np.array([1.0]), np.array([2.0]))

    def test_spearman_handles_ties(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 2.0, 3.0])
        assert spearman_coefficient(x, y) == pytest.approx(1.0)


def correlated_table(count=1000, seed=0) -> Table:
    rng = np.random.default_rng(seed)
    schema = numeric_schema("t", ["pk", "a", "b", "c"], primary_key="pk")
    table = Table(schema)
    a = rng.uniform(0, 100, size=count)
    table.insert_many(table.validate_insert_many({
        "pk": np.arange(count, dtype=np.float64),
        "a": a,
        "b": 5 * a + 2,                      # strongly correlated with a
        "c": rng.uniform(0, 100, size=count),  # independent
    }))
    return table


class TestDiscoverer:
    def test_measure(self):
        table = correlated_table()
        discoverer = CorrelationDiscoverer(sample_size=500)
        candidate = discoverer.measure(table, "a", "b")
        assert candidate.pearson == pytest.approx(1.0, abs=1e-6)
        assert candidate.is_monotonic

    def test_discover_finds_only_real_pairs(self):
        table = correlated_table()
        discoverer = CorrelationDiscoverer(threshold=0.9)
        pairs = {(c.target_column, c.host_column)
                 for c in discoverer.discover(table, ["a", "b", "c"])}
        assert ("a", "b") in pairs and ("b", "a") in pairs
        assert not any("c" in pair for pair in pairs)

    def test_empty_table_raises(self):
        table = Table(numeric_schema("t", ["pk", "a"], primary_key="pk"))
        with pytest.raises(CorrelationError):
            CorrelationDiscoverer().measure(table, "pk", "a")


class TestAdvisor:
    def test_recommends_hermit_for_correlated_host(self):
        table = correlated_table()
        advisor = HostColumnAdvisor()
        recommendation = advisor.recommend(table, "a", ["b", "c"])
        assert recommendation.use_hermit
        assert recommendation.host_column == "b"

    def test_rejects_uncorrelated_host(self):
        table = correlated_table()
        recommendation = HostColumnAdvisor().recommend(table, "a", ["c"])
        assert not recommendation.use_hermit
        assert recommendation.host_column is None

    def test_rejects_when_no_candidates(self):
        table = correlated_table()
        recommendation = HostColumnAdvisor().recommend(table, "a", [])
        assert not recommendation.use_hermit
        assert "no indexed columns" in recommendation.reason

    def test_rejects_non_monotonic_correlation(self):
        rng = np.random.default_rng(0)
        schema = numeric_schema("t", ["pk", "x", "y"], primary_key="pk")
        table = Table(schema)
        x = rng.uniform(0, 6 * np.pi, size=2000)
        table.insert_many(table.validate_insert_many({
            "pk": np.arange(2000, dtype=np.float64),
            "x": x,
            "y": np.sin(x),
        }))
        recommendation = HostColumnAdvisor().recommend(table, "x", ["y"])
        assert not recommendation.use_hermit

    def test_target_excluded_from_candidates(self):
        table = correlated_table()
        recommendation = HostColumnAdvisor().recommend(table, "a", ["a"])
        assert not recommendation.use_hermit
