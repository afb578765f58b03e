"""Self-tests of the end-to-end benchmark, at a 5,000-row scale.

Run with ``python -m pytest benchmarks/e2e -q`` (under 30 s).  They check the
benchmark, not the engine: that every workload runs, that exactly the named
metrics come out, that a wrong answer is counted, that spans nest, and that a
seed repeats its counts.
"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from e2e import metrics, run, workloads
from e2e.oracle import Oracle
from e2e.trace import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ROWS = 5_000
SECONDS = 1.0


def params(tmp_path, seed: int = 5) -> workloads.Params:
    return workloads.Params(seed=seed, seconds=SECONDS, rows=ROWS,
                            out_dir=tmp_path)


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict:
    """Every workload once untraced and once traced, shared by the tests."""
    out = tmp_path_factory.mktemp("out")
    return {(name, trace): workloads.run_workload(name, params(out),
                                                  bool(trace))
            for name in metrics.WORKLOADS for trace in (0, 1)} | {"out": out}


@pytest.mark.parametrize("name", list(metrics.WORKLOADS))
def test_workload_runs_clean_and_emits_exactly_its_metrics(records, name):
    untraced, traced = records[name, 0], records[name, 1]
    for record in (untraced, traced):
        assert record["failed"] == 0
        assert record["checks_violated"] == []
        assert record["attempted"] > 0
        assert record["oracle_checked"] > 0
    expected = {m.name for m in metrics.END_TO_END} | {
        m.name for m in metrics.END_TO_END_SINGLE if name in m.workloads}
    assert set(untraced["metrics"]) == expected
    # At this scale a rung lasts 25 ms, too short for a keep-up verdict, so
    # the highest rate that kept up may be none.
    assert all(entry["value"] > 0 for metric, entry
               in untraced["metrics"].items() if metric != "max_rate_ok_qps")
    layer = {m.name: m for m in metrics.PER_LAYER}
    assert set(traced["metrics"]) == set(layer)
    for metric_name, entry in traced["metrics"].items():
        if name not in layer[metric_name].workloads:
            assert entry["value"] == 0, metric_name
    assert (records["out"] / f"{name}.spans.jsonl").exists()


def test_layers_a_workload_is_there_to_expose_are_measured(records):
    """The waterfall is not all zeros where the issue predicts work."""
    def value(workload, metric):
        return records[workload, 1]["metrics"][metric]["value"]

    assert value("range_linear", "hermit.candidate_us_per_req") > 0
    assert value("range_linear", "index.host_probe_us_per_req") > 0
    assert value("range_linear", "index.primary_resolve_us_per_req") == 0
    assert value("point_sigmoid", "index.primary_resolve_us_per_req") > 0
    assert value("point_sigmoid", "database.dispatch_us_single") > 0
    assert value("point_sigmoid", "trs.leaves") > 1
    assert value("serve_zipf", "cache.hit_ratio") > 0
    assert value("serve_zipf", "serving.queue_wait_us") > 0
    assert value("mixed_rw", "durability.wal_bytes_per_row") > 0
    assert value("mixed_rw", "durability.records_replayed") > 0
    assert value("shard_range", "sharding.request_bytes_per_req") > 0
    assert value("shard_range", "sharding.children_cpu_us_per_req") > 0


def test_benchmark_json_is_the_catalogue():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert contract == metrics.contract(run.RUN_SECONDS)
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in contract[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert len(contract["workloads"]) == 5
    assert len(contract["per_layer"]) <= 128
    assert any(entry["name"] == "setup_s" and entry["bound"] == max(
        item["bound"] for item in contract["end_to_end"])
        for entry in contract["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in contract["workloads"])


def test_wrong_answer_raises_failed_share(tmp_path):
    workload = workloads.RangeLinear(params(tmp_path))
    workload.set_up(times=1)
    try:
        honest = workload.database.execute_many

        def lossy(requests):
            results = honest(requests)
            results[0].locations = results[0].locations[1:] + [10 ** 9]
            return results

        workload.run_repetition(1, check="all", execute_many=lossy)
    finally:
        workload.close()
        gc.unfreeze()
    assert workload.failed == workload.calls
    assert workload.failed / workload.attempted > 0


def test_spans_nest_and_share_batch_ids(records):
    with open(records["out"] / "range_linear.spans.jsonl",
              encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans
    names = {span["name"] for span in spans}
    assert {"database.execute_many", "planner.plan_many",
            "executor.execute_plan_many", "hermit.candidate_tids_many",
            "trs.lookup_many", "index.host.range_search_segmented",
            "storage.in_range_mask"} <= names
    for index, span in enumerate(spans):
        assert span["end"] >= span["start"]
        if span["parent"] is None:
            assert span["batch"] == index
            continue
        parent = spans[span["parent"]]
        assert span["parent"] < index
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        assert span["batch"] == parent["batch"]


@pytest.mark.parametrize("name", ["range_linear", "mixed_rw"])
def test_same_seed_same_counts(records, tmp_path, name):
    again = {trace: workloads.run_workload(name, params(tmp_path),
                                           bool(trace)) for trace in (0, 1)}
    for trace in (0, 1):
        assert again[trace]["attempted"] == records[name, trace]["attempted"]
    for metric in metrics.EXACT_COUNTS:
        for trace in (0, 1):
            first = records[name, trace]["metrics"].get(metric)
            if first is not None:
                assert again[trace]["metrics"][metric]["value"] == \
                    first["value"], metric


def test_command_line_contract(tmp_path, monkeypatch, capsys):
    """The driver's call: one JSON object on the last line, exit 0."""
    monkeypatch.setattr(run, "ROWS", ROWS)
    monkeypatch.setattr(run, "OUT", tmp_path)
    status = run.main(["--workload", "point_sigmoid", "--seed", "3",
                       "--seconds", str(SECONDS), "--trace", "0"])
    assert status == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(set(entry) == {"value", "unit"}
               for entry in line["metrics"].values())


def test_refuses_to_run_without_the_engine(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "range_linear", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


# ----------------------------------------------------------- unit checks

class _Layered:
    def outer(self, value):
        return self.inner(value) + self.inner(value)

    def inner(self, value):
        return value + 1


def test_recorder_wraps_unwraps_and_computes_self_time():
    recorder, target = Recorder(), _Layered()
    seen = []
    recorder.wrap(target, "outer", "outer", seen.append)
    recorder.wrap(target, "inner", "inner")
    with pytest.raises(AttributeError):
        recorder.wrap(target, "missing", "missing")
    assert target.outer(1) == 4
    recorder.unwrap_all()
    assert "outer" not in vars(target) and "inner" not in vars(target)
    assert target.outer(1) == 4 and len(recorder.spans) == 3
    assert seen == [4]
    window = recorder.window()
    own, total = window.self_seconds(), window.total_seconds()
    assert window.calls() == {"outer": 1, "inner": 2}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert sum(own.values()) == pytest.approx(total["outer"])


def test_oracle_fast_path_agrees_with_brute_force():
    rng = np.random.default_rng(0)
    oracle = Oracle()
    targets = rng.uniform(0, 100, size=500)
    oracle.insert(np.arange(500), targets)
    oracle.delete(7)
    oracle.update(9, 50.0)
    for low in rng.uniform(0, 90, size=50):
        assert np.array_equal(oracle.expected(low, low + 10),
                              oracle.expected_brute(low, low + 10))
    assert oracle.check(40, 60, oracle.expected_brute(40, 60).tolist())
    assert not oracle.check(40, 60, oracle.expected_brute(40, 60)[1:].tolist())
    assert oracle.mismatches == 1 and oracle.live_rows == 499


def test_least_fifth_ignores_the_slow_passes():
    costs = [1.0] * 4 + [1.5] * 16
    assert sorted(metrics.quiet(costs)) == [0, 1, 2, 3]
    summary = metrics.quiet_summary(costs)
    assert summary["value"] == 1.0 and summary["median_of_all"] == 1.5
    assert metrics.quiet_summary(costs, lower_is_quiet=False)["value"] == 1.5
    assert metrics.tail_percentile(5000) == 99.0
    assert metrics.tail_percentile(100) == 90.0


def test_a_call_counts_at_the_least_of_its_replays():
    """What every replay does stays in the numbers; what hits one replay
    and not the next — the box — does not."""
    steady = [np.full(100, 1e-3) for _ in range(6)]
    stalled = [item.copy() for item in steady]
    for item in stalled:
        item[:20] = 5e-3          # the same calls stall on every replay
    noisy = [item.copy() for item in steady]
    for item in noisy[:4]:
        item *= 1.4               # the box's slow state: whole replays
    noisy[4][7] = noisy[5][8] = 9e-3   # a preempted call, once each

    def tail(replays):
        return metrics.read_latency_summary(replays)[1]

    assert tail(steady)["value"] == pytest.approx(1.0)
    assert tail(stalled)["value"] == pytest.approx(5.0)
    assert tail(noisy)["value"] == pytest.approx(1.0)
    assert tail(noisy)["of_all"] == pytest.approx(1.4)
    assert tail(steady)["n"] == 100 and tail(steady)["percentile"] == 90.0

    def replay(latencies, children):
        return workloads.Repetition(latencies, latencies / 2, 200, children)

    read = workloads.read_metrics([replay(noisy[4], 0.03),
                                   replay(noisy[5], 0.02)])
    assert read["read_qps"]["value"] == pytest.approx(200 / 0.1)
    assert read["read_qps"]["median_of_replays"] < 200 / 0.1
    assert read["cpu_us_per_read"]["value"] == pytest.approx(
        (0.05 + 0.02) / 200 * 1e6)
