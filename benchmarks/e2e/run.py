"""The repo's benchmark: one command, five workloads, every metric by name.

Two ways to call it, both from the root of a checkout:

``python3 benchmarks/e2e/run.py [--seed N] [--seconds S]``
    Runs every workload twice, each time in a fresh process — untraced for
    the end-to-end metrics, traced for the per-layer waterfall — prints
    every metric with its unit and writes ``benchmarks/e2e/out/latest.json``
    plus one ``<workload>.spans.jsonl`` per workload.  ``--repeat-check``
    does all of that twice and fails unless the two sets agree within the
    benchmark's own bounds.

``... --workload NAME --seed N --seconds S --trace 0|1``
    Runs one workload in this process (the caller supplies the fresh
    process) and ends its output with one JSON line:
    ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Exit status is non-zero when any operation failed, any answer differed from
the oracle, or a traced run's span checks did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DEFAULT_SEED = 12
ROWS = 200_000
RUN_SECONDS = 10


def _import_benchmark():
    """Put the engine and this package on the path; fail clearly without them.

    The script's own directory is dropped from ``sys.path`` so that
    ``trace.py`` here cannot shadow the standard library's ``trace``.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/e2e: no engine source under {ROOT / 'src'}; "
                 "run from a full checkout")
    sys.path[:] = [entry for entry in sys.path
                   if Path(entry or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    from e2e import metrics, workloads
    return metrics, workloads


def _catalogue(metrics) -> dict:
    return {metric.name: metric
            for metric in (metrics.END_TO_END + metrics.END_TO_END_SINGLE
                           + metrics.PER_LAYER)}


def _print_metrics(workload: str, trace: bool, values: dict,
                   catalogue: dict) -> None:
    """Every metric this workload reports, by name, with its unit."""
    print(f"-- {workload} "
          f"({'traced, per layer' if trace else 'untraced, end to end'})")
    for name, entry in values.items():
        if workload not in catalogue[name].workloads:
            continue
        spread = ""
        if "q1" in entry:
            spread = f"  [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}]"
        if "n" in entry:
            spread += f"  n={entry['n']}"
        if "percentile" in entry:
            spread += f"  (p{entry['percentile']:.4g})"
        if "median_of_all" in entry:
            spread += (f" least fifth of {entry['of']} passes, median of all "
                       f"{entry['median_of_all']:.6g}")
        if "median_of_replays" in entry:
            spread += (f"  each call at the least of {entry['replays']} "
                       f"replays, median replay "
                       f"{entry['median_of_replays']:.6g}")
        if "of_all" in entry:
            spread += (f" calls at the least of {entry['replays']} replays, "
                       f"every sample pooled {entry['of_all']:.6g}")
            if "percentile_of_all" in entry:
                spread += f" (p{entry['percentile_of_all']:.4g})"
        print(f"  {name:<36} {entry['value']:>16.6g} "
              f"{catalogue[name].unit}{spread}")


def run_one(args) -> int:
    """Driver contract: one workload, this process, JSON on the last line."""
    metrics, workloads = _import_benchmark()
    if args.workload not in metrics.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(metrics.WORKLOADS)}")
    params = workloads.Params(seed=args.seed, seconds=args.seconds,
                              rows=ROWS, out_dir=OUT)
    record = workloads.run_workload(args.workload, params, bool(args.trace))
    _print_metrics(args.workload, bool(args.trace), record["metrics"],
                   _catalogue(metrics))
    for message in record["checks_violated"]:
        print(f"  CHECK FAILED: {message}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    wanted = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    correct = record["failed"] == 0 and not record["checks_violated"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric.name: {
            "value": record["metrics"][metric.name]["value"],
            "unit": metric.unit} for metric in wanted},
    }))
    return 0 if correct else 1


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(args, metrics) -> tuple[dict, bool]:
    """Every workload, untraced then traced, one fresh process each."""
    results: dict = {}
    ok = True
    for workload in metrics.WORKLOADS:
        entry = results[workload] = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                ok = False
                print(done.stderr, file=sys.stderr)
                if not lines or not lines[-1].startswith("{"):
                    continue
            with open(OUT / f"{workload}.trace{trace}.json",
                      encoding="utf-8") as handle:
                record = json.load(handle)
            entry["per_layer" if trace else "end_to_end"] = record["metrics"]
            kind = "traced" if trace else "untraced"
            entry[f"{kind}_attempted"] = record["attempted"]
            entry[f"{kind}_failed"] = record["failed"]
            entry.setdefault("checks_violated", []).extend(
                record["checks_violated"])
        attempted = entry.get("untraced_attempted", 0)
        if attempted:
            entry["failed_share"] = entry["untraced_failed"] / attempted
            print(f"  {'failed_share':<36} {entry['failed_share']:>16.6g} ratio")
    return results, ok


def _value(results: dict, workload: str, name: str):
    for group in ("end_to_end", "per_layer"):
        entry = results[workload].get(group, {}).get(name)
        if entry is not None:
            return entry["value"]
    return None


def repeat_check(first: dict, second: dict, metrics) -> bool:
    """Two sets of the same code must agree within the benchmark's bounds.

    Where a value counts each call at the least of its replays, or reads
    the least fifth of the passes, the median over whole replays or passes
    is held to the same bound beside it, so a slowdown the least ones
    escape still fails the check.
    """
    ok = True
    for metric in metrics.END_TO_END + metrics.END_TO_END_SINGLE:
        for workload in metric.workloads:
            entries = [results[workload]["end_to_end"][metric.name]
                       for results in (first, second)]
            for key in ("value", "median_of_all", "median_of_replays"):
                if key not in entries[0]:
                    continue
                one, two = (entry[key] for entry in entries)
                gap = abs(one - two) / max(abs(one), abs(two), 1e-12)
                verdict = "ok" if gap <= metric.bound else "OUTSIDE BOUND"
                ok &= gap <= metric.bound
                label = metric.name + ("" if key == "value" else " (all)")
                print(f"  {workload:<14} {label:<26} {one:>14.6g} "
                      f"{two:>14.6g}  gap {gap:6.2%}  bound "
                      f"{metric.bound:.0%}  {verdict}")
    for name in metrics.EXACT_COUNTS:
        for workload in metrics.WORKLOADS:
            if workload in metrics.INEXACT_ON:
                continue
            one, two = (_value(results, workload, name)
                        for results in (first, second))
            if one != two:
                ok = False
                print(f"  {workload:<14} {name:<36} {one} != {two}  "
                      "COUNT DIFFERS")
    return ok


def run_all(args) -> int:
    metrics, _ = _import_benchmark()
    import numpy
    OUT.mkdir(parents=True, exist_ok=True)
    sets = []
    ok = True
    for _ in range(2 if args.repeat_check else 1):
        results, passed = run_set(args, metrics)
        sets.append(results)
        ok &= passed
    document = {
        "meta": {
            "seed": args.seed, "seconds": args.seconds, "rows": ROWS,
            "git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
        },
        "workloads": sets[-1],
    }
    with open(OUT / "latest.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {OUT / 'latest.json'}")
    if args.repeat_check and ok:
        print("-- repeat check: first set vs second set")
        ok = repeat_check(sets[0], sets[1], metrics)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this "
                        "process, and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time budget the fixed op counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the full set twice and compare")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
