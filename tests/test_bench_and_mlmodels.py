"""Unit tests for the benchmark harness and the Table 1 regression models."""

import numpy as np
import pytest

from repro.bench.harness import (
    FigureData,
    construction_time,
    insertion_throughput,
    run_point_batch,
    run_query_batch,
    run_query_singles,
)
from repro.bench.report import format_figure, format_memory_report, format_table
from repro.bench.timing import (
    SimulatedClock,
    Spread,
    ThroughputResult,
    paired_ratio,
    scaled,
    stopwatch,
)
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.errors import ConfigurationError
from repro.mlmodels.kernel import KernelRegressionModel
from repro.mlmodels.linear import LinearRegressionModel
from repro.storage.disk import DiskManager, IOCostModel
from repro.storage.memory import MemoryReport
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import generate_synthetic, load_synthetic


class TestTiming:
    def test_throughput_result(self):
        result = ThroughputResult(operations=1000, seconds=0.5)
        assert result.ops_per_second == 2000.0
        assert result.kops == 2.0
        assert ThroughputResult(10, 0.0).ops_per_second == 0.0

    def test_stopwatch_measures_elapsed(self):
        with stopwatch() as elapsed:
            sum(range(10_000))
        assert elapsed[0] > 0.0

    def test_scaled_respects_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scaled(100) == 100
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scaled(100) == 250
        monkeypatch.setenv("REPRO_SCALE", "")
        assert scaled(100) == 100

    @pytest.mark.parametrize("raw", ["1O", "garbage", "-1", "0", "nan", "inf"])
    def test_malformed_scale_is_rejected(self, monkeypatch, raw):
        """A typo must not silently run every figure bench at size 1."""
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigurationError, match="REPRO_SCALE"):
            scaled(100)

    def test_simulated_clock_adds_io_latency(self):
        disk = DiskManager(cost_model=IOCostModel(read_latency_us=1000.0))
        page = disk.allocate_page(capacity=1)
        clock = SimulatedClock(disk)
        clock.start()
        disk.read_page(page.page_id)
        clock.stop()
        assert clock.io_seconds == pytest.approx(1e-3)
        assert clock.total_seconds > clock.cpu_seconds


class FakeClock:
    """A clock the sides advance: each call of a side costs its base time
    multiplied by the machine's load factor at that call."""

    def __init__(self, load_per_call):
        self.now = 0.0
        self.load = iter(load_per_call)
        self.calls: list[str] = []

    def __call__(self) -> float:
        return self.now

    def side(self, name: str, base: float):
        def run() -> None:
            self.calls.append(name)
            self.now += base * next(self.load)
        return run


class TestPairedRatio:
    def test_side_order_alternates_and_the_reference_opens(self):
        clock = FakeClock([1.0] * 8)
        paired_ratio(clock.side("F", 1.0), clock.side("R", 2.0), rounds=4,
                     clock=clock)
        assert "".join(clock.calls) == "RFFRRFFR"

    def test_sides_are_timed_with_the_injected_clock(self):
        clock = FakeClock([1.0] * 6)
        paired = paired_ratio(clock.side("F", 1.0), clock.side("R", 2.0),
                              rounds=3, clock=clock)
        assert paired.ratios == (2.0, 2.0, 2.0)
        assert paired.ratio == 2.0
        assert (paired.feature.median, paired.reference.median) == (1.0, 2.0)

    def test_a_side_may_report_the_cost_it_measured_itself(self):
        clock = FakeClock([])
        costs = iter([2.0, 1.0, 1.0, 4.0])         # R, F | F, R
        paired = paired_ratio(lambda: next(costs), lambda: next(costs),
                              rounds=2, clock=clock)
        assert paired.ratios == (2.0, 4.0)

    def test_median_of_ratios_not_ratio_of_medians_under_drift(self):
        """A tenant arrives midway through round 1 and stays: calls 0-2 run
        at load 1, the rest at load 4.  Every round but the one it splits
        still measures the true 2x; the per-side medians do not."""
        clock = FakeClock([1, 1, 1, 4, 4, 4, 4, 4])
        paired = paired_ratio(clock.side("F", 1.0), clock.side("R", 2.0),
                              rounds=4, clock=clock)
        assert paired.ratios == (2.0, 8.0, 2.0, 2.0)
        assert paired.ratio == 2.0
        assert paired.reference.median / paired.feature.median == 3.2

    def test_alternation_cancels_a_steady_within_round_drift(self):
        """Load creeps up call by call, so whoever runs second in a round
        is taxed.  Unalternated, every ratio would read below 2; alternated,
        they straddle it and an even round count's median lands on it."""
        clock = FakeClock([1 + 0.01 * call for call in range(8)])
        paired = paired_ratio(clock.side("F", 1.0), clock.side("R", 2.0),
                              rounds=4, clock=clock)
        below, above = paired.ratios[::2], paired.ratios[1::2]
        assert all(ratio < 2.0 for ratio in below)
        assert all(ratio > 2.0 for ratio in above)
        assert paired.ratio == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("rounds,expected", [(3, 4.0), (4, 5.0)])
    def test_odd_and_even_round_counts(self, rounds, expected):
        reference_costs = iter([2.0, 4.0, 6.0, 8.0])
        paired = paired_ratio(lambda: 1.0, lambda: next(reference_costs),
                              rounds=rounds)
        assert paired.ratios == (2.0, 4.0, 6.0, 8.0)[:rounds]
        assert paired.ratio == expected

    def test_both_sides_report_median_and_quartiles(self):
        feature_costs = iter([5.0, 1.0, 4.0, 2.0, 3.0])
        paired = paired_ratio(lambda: next(feature_costs), lambda: 6.0,
                              rounds=5)
        assert paired.feature == Spread(median=3.0, q1=2.0, q3=4.0)
        assert paired.reference == Spread(median=6.0, q1=6.0, q3=6.0)
        record = paired.as_dict("fast_seconds", "slow_seconds")
        assert record["rounds"] == 5
        assert record["round_ratios"] == [1.2, 6.0, 1.5, 3.0, 2.0]
        assert record["fast_seconds"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_needs_a_round(self):
        with pytest.raises(ConfigurationError):
            paired_ratio(lambda: 1.0, lambda: 1.0, rounds=0)


@pytest.fixture
def hermit_setup():
    dataset = generate_synthetic(2000, "linear", noise_fraction=0.01, seed=8)
    database = Database()
    table_name = load_synthetic(database, dataset)
    database.create_index("idx_c", table_name, "colC",
                          method=IndexMethod.HERMIT, host_column="colB")
    return database, table_name, "idx_c", dataset


class TestHarness:
    def test_run_query_batch_counts_everything(self, hermit_setup):
        database, table_name, index_name, dataset = hermit_setup
        domain = (float(dataset.columns["colC"].min()),
                  float(dataset.columns["colC"].max()))
        queries = range_queries(domain, selectivity=0.05, count=10, seed=1)
        batch = run_query_batch(database, table_name, index_name, queries)
        assert batch.throughput.operations == 10
        assert batch.throughput.seconds > 0
        assert batch.breakdown.lookups == 10
        assert batch.total_results > 0
        assert 0.0 <= batch.false_positive_ratio <= 1.0

    def test_run_query_singles_matches_the_batch_runner(self, hermit_setup):
        index = hermit_setup[:3]
        dataset = hermit_setup[3]
        domain = (float(dataset.columns["colC"].min()),
                  float(dataset.columns["colC"].max()))
        queries = range_queries(domain, selectivity=0.05, count=10, seed=1)
        singles = run_query_singles(*index, queries)
        batch = run_query_batch(*index, queries)
        assert singles.throughput.operations == 10
        assert singles.breakdown.lookups == 10
        assert singles.total_results == batch.total_results
        assert singles.breakdown.candidates == batch.breakdown.candidates

    def test_run_point_batch(self, hermit_setup):
        database, table_name, index_name, dataset = hermit_setup
        values = [float(v) for v in dataset.columns["colC"][:5]]
        batch = run_point_batch(database, table_name, index_name, values)
        assert batch.throughput.operations == 5
        assert batch.total_results >= 5

    def test_insertion_throughput(self, hermit_setup):
        database, table_name, _, _ = hermit_setup
        rows = [{"colA": 1e7 + i, "colB": 2.0 * i + 10.0, "colC": float(i),
                 "colD": 0.0} for i in range(50)]
        result = insertion_throughput(database, table_name, rows)
        assert result.operations == 50
        assert result.ops_per_second > 0

    def test_construction_time(self):
        assert construction_time(lambda: sum(range(1000)), repetitions=3) >= 0.0

    def test_figure_data_series(self):
        figure = FigureData("Fig X", "selectivity", "kops")
        figure.add_point("HERMIT", 1.0, 10.0)
        figure.add_point("HERMIT", 2.5, 12.0)
        figure.add_point("Baseline", 1.0, 20.0)
        figure.add_point("Baseline", 2.5, 18.0)
        assert figure.series_for("HERMIT").as_rows() == [(1.0, 10.0), (2.5, 12.0)]
        assert figure.ratio("HERMIT", "Baseline") == [0.5, pytest.approx(12 / 18)]


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bbb" in lines[0]

    def test_format_figure(self):
        figure = FigureData("Figure 4a", "selectivity (%)", "kops")
        figure.add_point("HERMIT", 1.0, 5.0)
        figure.add_point("Baseline", 1.0, 6.0)
        figure.notes.append("shape matches paper")
        text = format_figure(figure)
        assert "Figure 4a" in text
        assert "HERMIT" in text and "Baseline" in text
        assert "note:" in text

    def test_format_empty_figure(self):
        assert "(no data)" in format_figure(FigureData("F", "x", "y"))

    def test_format_memory_report(self):
        report = MemoryReport({"table": 1024 * 1024, "new_indexes": 512 * 1024})
        text = format_memory_report(report, title="Figure 5b")
        assert "Figure 5b" in text
        assert "total" in text


class TestMLModels:
    def test_linear_model_fits_line(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 100, size=1000)
        y = 4.0 * x - 3.0
        model = LinearRegressionModel()
        result = model.timed_fit(x, y)
        assert result.mean_absolute_error < 1e-6
        assert result.num_tuples == 1000
        assert np.allclose(model.predict(np.array([0.0, 1.0])), [-3.0, 1.0])

    def test_linear_model_requires_fit_before_predict(self):
        with pytest.raises(RuntimeError):
            LinearRegressionModel().predict(np.array([1.0]))

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "polynomial"])
    def test_kernel_models_fit_reasonably(self, kernel):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=300)
        y = np.sin(x)
        model = KernelRegressionModel(kernel=kernel, regularization=1e-3)
        result = model.timed_fit(x, y)
        assert result.seconds > 0
        assert result.mean_absolute_error < 0.5

    def test_kernel_training_is_much_slower_than_linear(self):
        """The Table 1 effect: kernel training cost grows superlinearly."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, size=1200)
        y = 2 * x + rng.normal(0, 0.1, size=1200)
        linear_seconds = LinearRegressionModel().timed_fit(x, y).seconds
        kernel_seconds = KernelRegressionModel("rbf").timed_fit(x, y).seconds
        assert kernel_seconds > 10 * linear_seconds

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            KernelRegressionModel(kernel="laplacian")

    def test_kernel_requires_fit_before_predict(self):
        with pytest.raises(RuntimeError):
            KernelRegressionModel().predict(np.array([1.0]))
