"""The ratio-gate system: the gate's rules, and the one runner at tiny scale.

``TestGate`` unit-tests ``benchmarks/check_regression.py`` on hand-made
records.  ``TestRunner`` drives ``benchmarks/ratio_gates.py`` with tiny
sizes in place of the CI ones: every suite races through the one paired
estimator, the raced sides agree, the bundle names every gated record
(emitted or skipped with a reason), and one stamped trajectory line is
appended per run.  These tiny-scale runs replace the ``test_*`` faces of the
retired per-suite ``bench_*.py`` scripts.  ``TestExactCounts`` covers the
reader that compares the e2e benchmark's exact counts with the committed
file.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import check_e2e_counts  # noqa: E402
import check_regression  # noqa: E402
import ratio_gates  # noqa: E402
from check_regression import GATED_METRICS, RETIRED, check  # noqa: E402

TINY_SIZES = {
    "writepath": {"insert_rows": 600, "rounds": 2},
    "sensor_fp": {"num_tuples": 6_000, "num_queries": 12, "rounds": 2},
    "durability": {"rows": 6_000, "rounds": 2},
    "serving": {"num_tuples": 6_000, "num_clients": 8,
                "requests_per_client": 12, "rounds": 2},
    "sharding": {"num_shards": 2, "num_tuples": 4_000, "batch_size": 16,
                 "rounds": 2},
}


def passing_records() -> list[dict]:
    """One measurement per gated record, every metric at twice its floor."""
    return [
        {"benchmark": name, "measurements": [{
            "workload": "w", "mechanism": "m", "pointer_scheme": "physical",
            "results_agree": True,
            **{metric: 2.0 * (floor or check_regression.MIN_SPEEDUP)
               for metric, floor in metrics.items()},
        }]}
        for name, metrics in GATED_METRICS.items()
    ]


def only(records: list[dict], name: str) -> dict:
    return next(record for record in records if record["benchmark"] == name)


class TestGate:
    def test_a_full_passing_run_passes_with_and_without_a_baseline(self):
        records = passing_records()
        assert check(records, []) == []
        assert check(records, copy.deepcopy(records)) == []

    def test_exactly_the_kept_record_families_are_gated(self):
        assert set(GATED_METRICS) == {
            "durability", "serving", "serving_result_cache",
            "serving_result_cache_uniform", "sensor_fp", "sharding_sanity",
            "sharding_parallel", "writepath_vectorized"}
        assert not set(RETIRED) & set(GATED_METRICS)
        assert {name for names, _ in ratio_gates.SUITES.values()
                for name in names} == set(GATED_METRICS)

    def test_floor(self):
        records = passing_records()
        only(records, "serving")["measurements"][0][
            "coalesced_vs_percall"] = 0.99
        (failure,) = check(records, [])
        assert "serving/w/m/physical" in failure
        assert "fell below the 1.00x floor" in failure

    def test_default_floor_applies_where_none_is_pinned(self):
        records = passing_records()
        only(records, "writepath_vectorized")["measurements"][0][
            "speedup_batched"] = 0.9
        assert len(check(records, [])) == 1
        assert check(records, [], min_speedup=0.8) == []

    def test_tolerance_against_the_baseline(self):
        baseline = passing_records()
        records = copy.deepcopy(baseline)
        measurement = only(records, "sensor_fp")["measurements"][0]
        measurement["hermit_vs_baseline"] *= 0.71      # within 30%
        assert check(records, baseline) == []
        measurement["hermit_vs_baseline"] *= 0.95      # now 32.5% down
        (failure,) = check(records, baseline)
        assert "degraded more than 30%" in failure
        assert check(records, baseline, tolerance=0.5) == []

    def test_disagreeing_sides_fail(self):
        records = passing_records()
        only(records, "durability")["measurements"][0]["results_agree"] = False
        (failure,) = check(records, [])
        assert "different results" in failure

    def test_missing_metric_fails(self):
        records = passing_records()
        del only(records, "durability")["measurements"][0]["wal_off_ratio"]
        (failure,) = check(records, [])
        assert "missing wal_off_ratio" in failure

    def test_a_measurement_that_disappears_fails(self):
        """The run still emits the record, but one of the baseline's
        (workload, mechanism, scheme) measurements is gone from it."""
        baseline = passing_records()
        extra = copy.deepcopy(
            only(baseline, "writepath_vectorized")["measurements"][0])
        extra["mechanism"] = "Baseline"
        only(baseline, "writepath_vectorized")["measurements"].append(extra)
        (failure,) = check(passing_records(), baseline)
        assert "writepath_vectorized/w/Baseline/physical" in failure
        assert "missing from the run" in failure

    def test_a_record_that_disappears_fails(self):
        records = [record for record in passing_records()
                   if record["benchmark"] != "sensor_fp"]
        (failure,) = check(records, [])
        assert failure.startswith("sensor_fp: record neither emitted")
        # ... and once more for the measurement the baseline holds.
        assert len(check(records, passing_records())) == 2

    def test_a_skip_needs_a_reason_and_then_excuses_the_record(self):
        baseline = passing_records()
        records = passing_records()
        parallel = only(records, "sharding_parallel")
        del parallel["measurements"]
        parallel["skipped"] = ""
        assert len(check(records, baseline)) == 2
        parallel["skipped"] = "2 cpus cannot seat 4 shards"
        assert check(records, baseline) == []

    def test_unknown_and_retired_names_are_rejected(self, tmp_path):
        for name, expected in [("made_up", "unknown benchmark"),
                               *((retired, "retired ratio gate")
                                 for retired in RETIRED)]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {"records": [{"benchmark": name, "measurements": []}]}))
            with pytest.raises(SystemExit, match=expected):
                check_regression.load_records(str(path))
        assert set(RETIRED) == {
            "planner", "planner_point", "query_throughput",
            "query_throughput_range", "query_throughput_btree_range"}

    def test_baseline_is_the_per_metric_minimum_of_the_runs(self):
        runs = [passing_records() for _ in range(3)]
        for run, (off, batch) in zip(runs, [(1.5, 1.9), (1.6, 1.3), (1.7, 1.4)]):
            measurement = only(run, "durability")["measurements"][0]
            measurement["wal_off_ratio"] = off
            measurement["wal_batch_ratio"] = batch
        merged = check_regression.minimum_of_runs(runs)
        measurement = only(merged, "durability")["measurements"][0]
        assert (measurement["wal_off_ratio"],
                measurement["wal_batch_ratio"]) == (1.5, 1.3)
        assert only(runs[0], "durability")["measurements"][0][
            "wal_batch_ratio"] == 1.9                  # inputs untouched

    def test_the_committed_baseline_is_current(self):
        """Every gated record is in it (or skipped there with a reason) and
        no retired one: the file passes its own gate's bookkeeping."""
        root = Path(__file__).resolve().parents[1]
        records = check_regression.load_records(
            str(root / "BENCH_ci_baseline.json"))
        assert check(records, records) == []


@pytest.mark.bench_smoke
class TestRunner:
    @pytest.fixture(scope="class")
    def records(self):
        return ratio_gates.run_suites(list(ratio_gates.SUITES), TINY_SIZES)

    def test_every_gated_record_is_emitted_or_skipped(self, records):
        assert [record["benchmark"] for record in records] == [
            name for names, _ in ratio_gates.SUITES.values()
            for name in names]
        failures = check(records, [])
        assert not [failure for failure in failures
                    if "floor" not in failure], failures
        for record in records:
            assert bool(record.get("measurements")) != bool(
                record.get("skipped")), record["benchmark"]

    def test_every_race_agrees_and_went_through_the_estimator(self, records):
        measurements = check_regression.index_measurements(records)
        assert len(measurements) >= 6 + 1 + 1 + 3 + 1
        for key, measurement in measurements.items():
            assert measurement["results_agree"] is True, key
            for metric in GATED_METRICS[key[0]]:
                race = measurement.get(f"{metric}_race", measurement)
                assert race["rounds"] == len(race["round_ratios"]) >= 2, key
                assert measurement[metric] > 0.0, key
                sides = [value for value in race.values()
                         if isinstance(value, dict)]
                assert len(sides) == 2, key
                for side in sides:
                    assert 0.0 < side["q1"] <= side["median"] <= side["q3"]

    def test_what_the_races_are_for_shows_at_tiny_scale(self, records):
        serving = only(records, "serving")["measurements"][0]
        assert serving["coalesced_mean_batch"] > 1.0   # requests do coalesce
        assert serving["coalesced_p99_ms"] >= serving["coalesced_p50_ms"] > 0
        # (Whether a request *hits* at this size hangs on how arrivals fall
        # into batches; ``test_result_cache`` pins hits deterministically.)
        cache = only(records, "serving_result_cache")["measurements"][0]
        assert cache["through_server"] is True
        assert 0.0 <= cache["hit_ratio"] <= 1.0
        uniform = only(records,
                       "serving_result_cache_uniform")["measurements"][0]
        assert uniform["through_server"] is False
        assert uniform["rounds"] == 3 * cache["rounds"]
        sensor = only(records, "sensor_fp")["measurements"][0]
        assert sensor["total_results"] > 0 and sensor["trs_leaves"] >= 1
        durability = only(records, "durability")["measurements"][0]
        assert durability["recovery_records"] > 0

    def test_one_stamped_trajectory_line(self, records):
        line = ratio_gates.trajectory_line(records)
        assert set(line) == {"time", "git_sha", "dirty", "cpu_count",
                             "python", "numpy", "metrics"}
        assert isinstance(line["dirty"], bool)
        assert len(line["metrics"]) == sum(
            len(GATED_METRICS[key[0]])
            for key in check_regression.index_measurements(records))
        assert all(isinstance(value, float)
                   for value in line["metrics"].values())
        json.dumps(line)

    @pytest.mark.parametrize("diff_status,dirty", [(0, False), (1, True)])
    def test_trajectory_line_marks_uncommitted_changes(
            self, records, monkeypatch, diff_status, dirty):
        calls = []

        def fake_run(command, **kwargs):
            calls.append(command)
            status = diff_status if command[1] == "diff" else 0
            return subprocess.CompletedProcess(command, status, stdout="abc")

        monkeypatch.setattr(ratio_gates.subprocess, "run", fake_run)
        line = ratio_gates.trajectory_line(records)
        assert (line["git_sha"], line["dirty"]) == ("abc", dirty)
        assert ["git", "diff", "--quiet", "HEAD", "--", "src",
                "benchmarks"] in calls

    def test_main_writes_one_bundle_and_appends_one_line(
            self, tmp_path, monkeypatch):
        trajectory = tmp_path / "trajectory.jsonl"
        monkeypatch.setattr(ratio_gates, "TRAJECTORY", trajectory)
        monkeypatch.setattr(ratio_gates, "CI_SIZES", TINY_SIZES)
        bundle = tmp_path / "bundle.json"
        for expected_lines in (1, 2):
            assert ratio_gates.main(["--suite", "sensor_fp",
                                     "--output", str(bundle)]) == 0
            assert len(trajectory.read_text().splitlines()) == expected_lines
        records = check_regression.load_records(str(bundle))
        skipped = {record["benchmark"]: record["skipped"]
                   for record in records if "skipped" in record}
        assert set(skipped) == set(GATED_METRICS) - {"sensor_fp"}
        assert all("not selected" in reason for reason in skipped.values())
        assert not [failure for failure in check(records, [])
                    if "floor" not in failure]


class TestExactCounts:
    def test_compares_the_smokes_with_the_committed_file(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "benchmarks" / "e2e" / "out"
        out.mkdir(parents=True)
        exact, inexact = check_e2e_counts.EXACT_COUNTS[0], "read_qps"
        for position, workload in enumerate(check_e2e_counts.WORKLOADS):
            (out / f"{workload}.trace1.json").write_text(json.dumps(
                {"metrics": {exact: {"value": 1.5 + position},
                             inexact: {"value": 123.0}}}))
        monkeypatch.setattr(check_e2e_counts, "ROOT", tmp_path)
        monkeypatch.setattr(check_e2e_counts, "COMMITTED",
                            tmp_path / "counts.json")
        assert check_e2e_counts.main(["--write"]) == 0
        committed = json.loads((tmp_path / "counts.json").read_text())
        assert committed["numpy"]
        assert committed["counts"]["mixed_rw"] == {exact: 1.5}
        assert check_e2e_counts.main([]) == 0

        (out / "mixed_rw.trace1.json").write_text(json.dumps(
            {"metrics": {exact: {"value": 1.5000000000000002}}}))
        assert check_e2e_counts.main([]) == 1
        assert f"mixed_rw {exact}" in capsys.readouterr().err

    def test_the_committed_counts_are_exact_counts_of_the_smokes(self):
        committed = json.loads(check_e2e_counts.COMMITTED.read_text())
        assert set(committed["counts"]) == set(check_e2e_counts.WORKLOADS)
        for counts in committed["counts"].values():
            assert counts and set(counts) <= set(
                check_e2e_counts.EXACT_COUNTS)
