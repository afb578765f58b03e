"""Unit tests for the leaf regression machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.regression import (
    LinearModel,
    band_range,
    band_range_many,
    epsilon_for_host_span,
    fit_linear,
    fit_linear_trimmed,
    quantile,
    select_leaf_model,
)
from repro.index.base import KeyRange


class TestFitLinear:
    def test_recovers_exact_line(self):
        m = np.linspace(0, 100, 200)
        n = 3.0 * m - 7.0
        beta, alpha = fit_linear(m, n)
        assert beta == pytest.approx(3.0)
        assert alpha == pytest.approx(-7.0)

    def test_negative_slope(self):
        m = np.linspace(0, 10, 50)
        beta, alpha = fit_linear(m, -2.0 * m + 5.0)
        assert beta == pytest.approx(-2.0)
        assert alpha == pytest.approx(5.0)

    def test_degenerate_inputs(self):
        assert fit_linear(np.array([]), np.array([])) == (0.0, 0.0)
        assert fit_linear(np.array([3.0]), np.array([9.0])) == (0.0, 9.0)
        beta, alpha = fit_linear(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert beta == 0.0
        assert alpha == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-100, 100), st.floats(-1000, 1000))
    def test_recovers_arbitrary_lines(self, slope, intercept):
        m = np.linspace(-50, 50, 101)
        beta, alpha = fit_linear(m, slope * m + intercept)
        assert beta == pytest.approx(slope, abs=1e-6)
        assert alpha == pytest.approx(intercept, abs=1e-4)



def same_float(a, b) -> bool:
    """Bit-for-bit equal (signed zeros told apart), or both NaN."""
    if np.isnan(a) and np.isnan(b):
        return True
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# Few distinct values so ties, signed zeros and non-finite values meet.
EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308,
                               5e-324, np.inf, -np.inf, np.nan])
PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0, 0.9, 0.99, 0.5]),
                          st.floats(0.0, 1.0))


class TestQuantile:
    """The fit's order statistics are ``np.quantile``'s, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(st.one_of(EDGE_VALUES, st.floats()),
                           min_size=1, max_size=40),
           probability=PROBABILITIES,
           method=st.sampled_from(["linear", "higher"]))
    @example(values=[3.0], probability=0.9, method="linear")
    @example(values=[-0.0, 0.0, 0.0, -0.0], probability=0.5, method="linear")
    @example(values=[1.0, np.inf], probability=1.0, method="linear")
    @example(values=[1.0, np.nan, 2.0], probability=0.0, method="higher")
    def test_equals_numpy_quantile(self, values, probability, method):
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.quantile(values, probability, method=method)
        assert same_float(quantile(values, probability, method=method),
                          expected)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(EDGE_VALUES, st.floats()),
                           min_size=1, max_size=40),
           probabilities=st.tuples(PROBABILITIES, PROBABILITIES))
    def test_a_pair_of_probabilities_is_one_numpy_call(self, values,
                                                       probabilities):
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.quantile(values, list(probabilities))
        got = quantile(values, probabilities)
        assert isinstance(got, tuple) and len(got) == 2
        assert all(map(same_float, got, expected))

    def test_leaves_its_input_unordered(self):
        values = np.array([3.0, 1.0, 2.0])
        quantile(values, 0.5)
        assert values.tolist() == [3.0, 1.0, 2.0]

    def test_rejects_other_methods(self):
        with pytest.raises(ValueError):
            quantile(np.ones(3), 0.5, method="nearest")

class TestTrimmedFit:
    def test_ignores_gross_outliers(self):
        rng = np.random.default_rng(0)
        m = np.linspace(0, 1000, 500)
        n = 2.0 * m + 10.0
        corrupted = n.copy()
        noisy_positions = rng.choice(500, size=25, replace=False)
        corrupted[noisy_positions] += 1e6
        plain_beta, plain_alpha = fit_linear(m, corrupted)
        robust_beta, robust_alpha = fit_linear_trimmed(m, corrupted, 0.1)
        assert abs(robust_beta - 2.0) < abs(plain_beta - 2.0)
        assert robust_beta == pytest.approx(2.0, rel=1e-3)
        assert robust_alpha == pytest.approx(10.0, abs=1.0)

    def test_no_trim_on_tiny_inputs(self):
        m = np.array([0.0, 1.0, 2.0])
        n = np.array([0.0, 2.0, 4.0])
        assert fit_linear_trimmed(m, n, 0.1) == fit_linear(m, n)

    def test_zero_fraction_is_plain_ols(self):
        m = np.linspace(0, 10, 100)
        n = m * 5
        assert fit_linear_trimmed(m, n, 0.0) == fit_linear(m, n)


class TestEpsilon:
    def test_formula(self):
        # eps = host_span * error_bound / (2 n); a line spans |beta| * width
        eps = epsilon_for_host_span(2.0 * 1000.0, 100, 2.0)
        assert eps == pytest.approx(2.0 * 1000.0 * 2.0 / 200.0)

    def test_zero_cases(self):
        assert epsilon_for_host_span(20.0, 0, 2.0) == 0.0
        assert epsilon_for_host_span(0.0, 5, 2.0) == 0.0
        assert epsilon_for_host_span(20.0, 5, 0.0) == 0.0

    def test_negative_span_uses_absolute_value(self):
        assert epsilon_for_host_span(-20.0, 5, 1.0) > 0

    def test_larger_error_bound_gives_larger_epsilon(self):
        small = epsilon_for_host_span(100.0, 50, 1.0)
        large = epsilon_for_host_span(100.0, 50, 100.0)
        assert large > small


class TestLinearModel:
    def test_covers_and_predict(self):
        model = LinearModel(beta=2.0, alpha=1.0, epsilon=0.5)
        assert model.predict(3.0) == 7.0
        assert model.covers_many(np.array([3.0, 3.0]),
                                 np.array([7.4, 7.6])).tolist() == [True, False]

    def test_covers_many_vectorised(self):
        model = LinearModel(beta=1.0, alpha=0.0, epsilon=0.1)
        m = np.array([1.0, 2.0, 3.0])
        n = np.array([1.05, 2.5, 3.0])
        assert list(model.covers_many(m, n)) == [True, False, True]

    def test_host_range_positive_slope(self):
        model = LinearModel(beta=2.0, alpha=0.0, epsilon=1.0)
        host = KeyRange(*model.host_range(1.0, 3.0))
        # Bounds carry a two-ulp outward pad (see regression.band_range).
        assert host.low == pytest.approx(1.0)
        assert host.high == pytest.approx(7.0)
        assert host.low <= 1.0 and host.high >= 7.0

    def test_host_range_negative_slope(self):
        model = LinearModel(beta=-2.0, alpha=0.0, epsilon=1.0)
        host = KeyRange(*model.host_range(1.0, 3.0))
        assert host.low == pytest.approx(-7.0)
        assert host.high == pytest.approx(-1.0)
        assert host.low <= -7.0 and host.high >= -1.0

    def test_infinite_operands_take_no_pad(self):
        # inf - inf in the pad made [inf, inf] probes emit NaN bounds and
        # "invalid value" warnings (an error under pyproject's filter); the
        # scalar and vectorised forms stay bitwise identical.
        inf = float("inf")
        operands = [(inf, inf), (-inf, -inf), (-inf, inf), (-5.0, inf),
                    (-inf, 3.0), (1.0, 2.0)]
        lows, highs = band_range_many(
            np.asarray([lo for lo, _ in operands]),
            np.asarray([hi for _, hi in operands]), 0.25)
        for (lo, hi), low, high in zip(operands, lows.tolist(),
                                       highs.tolist()):
            host = KeyRange(*band_range(lo, hi, 0.25))
            assert (host.low, host.high) == (low, high)
            assert low <= lo and high >= hi
        assert (lows[0], highs[0]) == (inf, inf)
        assert (lows[1], highs[1]) == (-inf, -inf)


class TestLinearLeafEpsilon:
    """A leaf the line covers keeps the paper's model: (slope, intercept,
    epsilon), epsilon straight from ``error_bound`` (Section 4.5)."""

    def test_epsilon_attached(self):
        m = np.linspace(0, 100, 1000)
        model = select_leaf_model(m, 2 * m, KeyRange(0, 100), error_bound=2.0,
                                  trim_fraction=0.0, max_fp_ratio=0.5)
        assert isinstance(model, LinearModel)
        assert model.beta == pytest.approx(2.0)
        assert model.epsilon == pytest.approx(2.0 * 100 * 2.0 / 2000.0)

    def test_point_probe_false_positives_match_error_bound(self):
        """The defining property of error_bound (Section 4.5).

        With uniformly distributed host values, the expected number of host
        values inside the range returned for a point probe should be close to
        the configured error_bound.
        """
        rng = np.random.default_rng(3)
        count = 20_000
        m = rng.uniform(0, 1000, size=count)
        n = 5.0 * m + 3.0
        error_bound = 50.0
        model = select_leaf_model(m, n, KeyRange(0, 1000), error_bound,
                                  trim_fraction=0.0, max_fp_ratio=0.5)
        assert isinstance(model, LinearModel)
        probes = rng.uniform(100, 900, size=50)
        covered_counts = []
        for probe in probes:
            host = KeyRange(*model.host_range(probe, probe))
            covered_counts.append(int(((n >= host.low) & (n <= host.high)).sum()))
        average = float(np.mean(covered_counts))
        assert average == pytest.approx(error_bound, rel=0.3)
