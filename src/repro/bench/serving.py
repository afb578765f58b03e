"""Open-loop serving benchmark: the coalescing server vs. per-call threads.

The serving front end's contract is that N independent clients get *more*
sustained throughput by funnelling their requests through one coalescing
:class:`~repro.serving.Server` than by each calling the engine directly —
the window trades a bounded sliver of latency for the batch API's
amortisation (one planner visit and O(1) array passes per plan group
instead of full per-call dispatch).

The benchmark is **open loop**: a merged arrival schedule is fixed up
front from ``num_clients`` simulated client streams at an offered rate
deliberately above the engine's calibrated per-call capacity (``overload``
times it), and both contenders face the *same* schedule, driven by the
same bounded pool of issuing threads (``issuing_threads``, each
multiplexing several client streams in arrival order — simulated clients
are streams in the schedule, not OS threads, so the client count scales
without drowning the measurement in GIL churn):

* **per-call** — an issuing thread blocks on ``Database.execute`` for
  each arrival (falling behind schedule when the engine saturates, exactly
  like a sync worker pool fronting the clients);
* **coalesced** — an issuing thread hands the arrival to the server and
  moves on; a dedicated collector thread consumes the futures in issue
  order and timestamps each completion (the analogue of a real async
  client's completion loop, kept off the issue path so completion
  bookkeeping is not billed to the server's worker).

A round's cost is the span from the schedule's start to the last
completion (sustained QPS is the request count over it); latency is
completion minus *scheduled* arrival (so queueing delay counts, which is
what makes an open-loop p99 honest).  Both races here — coalesced vs
per-call, result cache on vs off — go through
:func:`repro.bench.timing.paired_ratio`; the two sides' per-request
results are compared location array by location array, so a coalescing or
staleness bug shows up as ``results_agree=False`` rather than as a
throughput win.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.timing import paired_ratio
from repro.cache.result_cache import ResultCacheConfig
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.errors import ConfigurationError
from repro.serving import Server, ServerStats
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import generate_synthetic, load_synthetic


@dataclass
class ServingSetup:
    """One Synthetic database served by a B+-tree index on colC."""

    database: Database
    table_name: str
    stored_targets: np.ndarray
    target_domain: tuple[float, float]
    num_tuples: int


def build_serving_setup(num_tuples: int, seed: int = 42,
                        result_cache: ResultCacheConfig | None = None,
                        ) -> ServingSetup:
    """Load Synthetic-Linear and index colC with a B+-tree.

    The array-native access path keeps per-query mechanism cost low, which
    is the regime where serving dispatch (planning, locking, result
    assembly) dominates per-call cost — i.e. where coalescing has real
    work to amortise.

    ``result_cache`` attaches an epoch-keyed result cache to the database
    for :func:`measure_result_cache`; it arrives *disabled* so the plain
    coalesced-vs-per-call race stays a measurement of coalescing, not of
    result reuse — the cache race enables it per round.
    """
    dataset = generate_synthetic(num_tuples, "linear", noise_fraction=0.01,
                                 seed=seed)
    database = Database(result_cache=result_cache)
    if database.result_cache is not None:
        database.result_cache.enabled = False
    table_name = load_synthetic(database, dataset)
    database.create_index("idx_colC", table_name, "colC",
                          method=IndexMethod.BTREE)
    targets = dataset.columns["colC"]
    return ServingSetup(
        database=database, table_name=table_name, stored_targets=targets,
        target_domain=(float(targets.min()), float(targets.max())),
        num_tuples=num_tuples,
    )


def _build_requests(setup: ServingSetup, num_requests: int,
                    point_fraction: float, selectivity: float,
                    seed: int, mix: str = "uniform", zipf_s: float = 1.1,
                    distinct: int | None = None) -> list[QueryRequest]:
    """An interleaved point/range request mix on the served column.

    ``mix="uniform"`` draws every request independently (the original
    behaviour: virtually no repeats at CI scale).  ``mix="zipfian"``
    builds a pool of ``distinct`` unique requests and draws
    ``num_requests`` of them with Zipf(``zipf_s``) rank weights — the
    skewed hot-query traffic the result cache exists for.
    """
    if mix == "zipfian":
        pool_size = distinct if distinct is not None else 192
        pool = _build_requests(setup, pool_size, point_fraction, selectivity,
                               seed, mix="uniform")
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks ** -zipf_s
        rng = np.random.default_rng(seed + 7)
        draws = rng.choice(len(pool), size=num_requests,
                           p=weights / weights.sum())
        return [pool[index] for index in draws]
    if mix != "uniform":
        raise ConfigurationError(f"unknown request mix {mix!r}")
    rng = np.random.default_rng(seed)
    num_points = int(num_requests * point_fraction)
    values = rng.choice(setup.stored_targets, size=num_points, replace=True)
    ranges = range_queries(setup.target_domain, selectivity,
                           count=num_requests - num_points, seed=seed + 1)
    requests = [QueryRequest.point(setup.table_name, "colC", float(v))
                for v in values]
    requests.extend(QueryRequest.range(setup.table_name, "colC", q.low, q.high)
                    for q in ranges)
    rng.shuffle(requests)  # type: ignore[arg-type]
    return requests


def _client_schedules(num_clients: int, num_requests: int,
                      offered_qps: float,
                      issuing_threads: int) -> list[list[tuple[int, float]]]:
    """Stagger per-client streams and multiplex them onto issuing threads.

    Client ``k`` issues every ``num_clients / offered_qps`` seconds with a
    ``k/num_clients`` phase offset, so the merged stream is a uniform
    arrival process at ``offered_qps``.  Streams are then dealt round-robin
    to ``issuing_threads`` driver threads, each of which replays its
    streams' arrivals in time order.
    """
    interval = num_clients / offered_qps
    streams: list[list[tuple[int, float]]] = [[] for _ in range(num_clients)]
    for index in range(num_requests):
        client = index % num_clients
        position = index // num_clients
        offset = (position + client / num_clients) * interval
        streams[client].append((index, offset))
    merged: list[list[tuple[int, float]]] = [[] for _ in
                                             range(issuing_threads)]
    for client, stream in enumerate(streams):
        merged[client % issuing_threads].extend(stream)
    for schedule in merged:
        schedule.sort(key=lambda item: item[1])
    return merged


def _run_open_loop(schedules: list[list[tuple[int, float]]],
                   issue, drain) -> tuple[float, np.ndarray]:
    """Drive one open-loop round; returns (seconds from the schedule's
    start to the last completion, latency array).

    ``issue(index, scheduled_time)`` is called on the owning client thread
    at (or after) each scheduled arrival and must arrange for
    ``done_times[index]`` / ``results`` to be filled; ``drain()`` blocks
    until every completion has landed.
    """
    start_holder = [0.0]
    barrier = threading.Barrier(len(schedules) + 1)

    def client(schedule: list[tuple[int, float]]) -> None:
        barrier.wait()
        start = start_holder[0]
        for index, offset in schedule:
            target = start + offset
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            issue(index, target)

    threads = [threading.Thread(target=client, args=(schedule,), daemon=True)
               for schedule in schedules if schedule]
    for thread in threads:
        thread.start()
    # A small lead so every client sees the same t=0 after the barrier.
    start_holder[0] = time.perf_counter() + 0.005
    barrier.wait()
    for thread in threads:
        thread.join()
    done_times, latencies = drain()
    return float(done_times.max()) - start_holder[0], latencies


def _coalesced_round(database, requests: list[QueryRequest],
                     schedules: list[list[tuple[int, float]]],
                     num_requests: int, results_out: list,
                     ) -> tuple[float, np.ndarray, ServerStats]:
    """One open-loop round through the coalescing server.

    Issues hand the request to the server and move on; a dedicated
    collector thread consumes the futures in issue order and timestamps
    each completion (see the module docstring for why stamping must stay
    off the issue path).  Returns (seconds, latencies, server stats).
    """
    done_times = np.zeros(num_requests)
    latencies = np.zeros(num_requests)
    pending: list = []
    with Server(database) as server:

        def issue_coalesced(index: int, target: float) -> None:
            # Deliberately minimal: a real async client hands the
            # request off and services completions elsewhere.  Stamping
            # (or done-callbacks) here would bill completion work to the
            # issue path and to the server's worker thread, distorting
            # both sides of the race.
            pending.append((index, target, server.submit(requests[index])))

        def collect() -> None:
            # Completion loop: consume futures in issue order, blocking
            # only at the head of the line (a resolved batch is then
            # drained on the no-lock fast path).  Stamps are collector
            # observation times, which lag true completion by at most
            # the drain cost of one batch — a conservative skew that
            # inflates coalesced latency, never deflates it.
            position = 0
            while position < num_requests:
                if position == len(pending):
                    time.sleep(0.0002)
                    continue
                index, target, future = pending[position]
                results_out[index] = future.result()
                now = time.perf_counter()
                done_times[index] = now
                latencies[index] = now - target
                position += 1

        collector = threading.Thread(target=collect, daemon=True)
        collector.start()

        def drain_coalesced() -> tuple[np.ndarray, np.ndarray]:
            collector.join()
            return done_times, latencies

        seconds, latencies = _run_open_loop(schedules, issue_coalesced,
                                            drain_coalesced)
        stats = server.stats()
    return seconds, latencies, stats


def _calibrated_schedules(database, requests: list[QueryRequest],
                          num_clients: int, overload: float,
                          ) -> tuple[float, list[list[tuple[int, float]]]]:
    """(offered QPS, schedules) at ``overload`` times the serial capacity.

    Calibrates the engine's serial per-call capacity on a sample (which
    also warms the plan cache both sides share).  A small pool of issuing
    threads is deliberate: each multiplexes many client streams, so
    arrival fidelity is preserved while the GIL churn of per-arrival
    wakeups stays off the measurement (more drivers slow *both*
    contenders, but the coalescing server, whose worker needs long GIL
    slices for its batch passes, suffers more).
    """
    sample = requests[: min(512, len(requests))]
    started = time.perf_counter()
    for request in sample:
        database.execute(request)
    offered_qps = overload * len(sample) / (time.perf_counter() - started)
    return offered_qps, _client_schedules(num_clients, len(requests),
                                          offered_qps, min(4, num_clients))


def _medians(rounds: list[dict]) -> dict:
    """Field-wise median over one side's per-round observations."""
    return {key: statistics.median(observed[key] for observed in rounds)
            for key in rounds[0]}


def _latency_ms(latencies: np.ndarray) -> dict:
    p50, p99 = np.percentile(latencies, [50, 99]) * 1e3
    return {"p50_ms": float(p50), "p99_ms": float(p99)}


def _all_agree(one_side: list, other_side: list) -> bool:
    return all(
        one is not None and other is not None
        and np.array_equal(one.locations, other.locations)
        for one, other in zip(one_side, other_side))


def measure_serving(setup: ServingSetup, num_clients: int,
                    requests_per_client: int, rounds: int,
                    point_fraction: float = 0.5, selectivity: float = 2e-3,
                    overload: float = 3.0, seed: int = 42) -> dict:
    """Race the coalescing server against per-call threads, open loop.

    The offered rate is ``overload`` times the engine's calibrated serial
    per-call capacity, so both contenders are saturated and the measured
    quantity is *sustained* throughput, not arrival-rate tracking.
    ``coalesced_vs_percall`` is the gated ratio; latencies and batch sizes
    are medians over the rounds.
    """
    database = setup.database
    num_requests = num_clients * requests_per_client
    requests = _build_requests(setup, num_requests, point_fraction,
                               selectivity, seed)
    offered_qps, schedules = _calibrated_schedules(database, requests,
                                                   num_clients, overload)
    percall_results: list = [None] * num_requests
    coalesced_results: list = [None] * num_requests
    percall_rounds: list[dict] = []
    coalesced_rounds: list[dict] = []

    def percall() -> float:
        done_times = np.zeros(num_requests)
        latencies = np.zeros(num_requests)

        def issue(index: int, target: float) -> None:
            percall_results[index] = database.execute(requests[index])
            now = time.perf_counter()
            done_times[index] = now
            latencies[index] = now - target

        seconds, _ = _run_open_loop(schedules, issue,
                                    lambda: (done_times, latencies))
        percall_rounds.append(_latency_ms(latencies))
        return seconds

    def coalesced() -> float:
        seconds, latencies, stats = _coalesced_round(
            database, requests, schedules, num_requests, coalesced_results)
        coalesced_rounds.append({**_latency_ms(latencies),
                                 "mean_batch": stats.mean_batch,
                                 "max_batch": stats.max_batch})
        return seconds

    paired = paired_ratio(coalesced, percall, rounds)
    return {
        "workload": "synthetic",
        "mechanism": "Sorted:serving",
        "pointer_scheme": "physical",
        "num_tuples": setup.num_tuples,
        "num_clients": num_clients,
        "num_requests": num_requests,
        "point_fraction": point_fraction,
        "selectivity": selectivity,
        "offered_qps": offered_qps,
        "percall_qps": num_requests / paired.reference.median,
        "coalesced_qps": num_requests / paired.feature.median,
        **{f"percall_{field}": value
           for field, value in _medians(percall_rounds).items()},
        **{f"coalesced_{field}": value
           for field, value in _medians(coalesced_rounds).items()},
        "coalesced_vs_percall": paired.ratio,
        "results_agree": _all_agree(percall_results, coalesced_results),
        **paired.as_dict("coalesced_seconds", "percall_seconds"),
    }


def measure_result_cache(setup: ServingSetup, num_clients: int,
                         requests_per_client: int, rounds: int,
                         mix: str = "zipfian", zipf_s: float = 1.1,
                         distinct_requests: int = 192,
                         point_fraction: float = 0.25,
                         selectivity: float = 8e-3, overload: float = 8.0,
                         seed: int = 42, through_server: bool = True) -> dict:
    """Race cache-on vs cache-off over the same engine.

    Both contenders are the *same* engine facing the same requests; the
    only difference is whether the epoch-keyed result cache answers
    probes.  Every cached round starts from a cleared cache (doorkeeper
    included), so the reported hit ratio is earned entirely within the
    round — the within-workload reuse the Zipfian mix supplies — never
    carried over.

    With ``through_server=True`` both sides run open-loop through the
    coalescing :class:`~repro.serving.Server` against an arrival
    schedule at ``overload`` times the calibrated serial capacity (8x by
    default — at 3x the offered rate itself sits only ~1.3x above the
    uncached sustained QPS and would clamp the measurable win).  With
    ``through_server=False`` the race loops coalescing-sized batches
    straight through ``Database.execute_many`` — no threads, no arrival
    schedule — which is how the uniform-mix *overhead guard* is
    measured: under that mix nearly every request is distinct, the
    doorkeeper holds everything out of the cache, and the ratio pins
    pure miss-path overhead (probe + doorkeeper bookkeeping) without
    the serving machinery's scheduling noise drowning a ~5% effect.

    The workload defaults differ from :func:`measure_serving`
    deliberately: the mix is range-heavier (``point_fraction=0.25``,
    ``selectivity=8e-3``) because result caching earns its keep on
    expensive queries.
    """
    database = setup.database
    cache = database.result_cache
    if cache is None:
        raise ConfigurationError(
            "measure_result_cache needs build_serving_setup(..., "
            "result_cache=ResultCacheConfig(...))")
    num_requests = num_clients * requests_per_client
    requests = _build_requests(setup, num_requests, point_fraction,
                               selectivity, seed, mix=mix, zipf_s=zipf_s,
                               distinct=distinct_requests)
    uncached_results: list = [None] * num_requests
    cached_results: list = [None] * num_requests
    cache.enabled = False

    if through_server:
        offered_qps, schedules = _calibrated_schedules(database, requests,
                                                       num_clients, overload)

        def run_round(results_out: list) -> float:
            return _coalesced_round(database, requests, schedules,
                                    num_requests, results_out)[0]
    else:
        offered_qps = 0.0
        database.execute_many(requests)  # warm the plan cache
        batches = [requests[start:start + 256]
                   for start in range(0, num_requests, 256)]

        def run_round(results_out: list) -> float:
            started = time.perf_counter()
            position = 0
            for batch in batches:
                for result in database.execute_many(batch):
                    results_out[position] = result
                    position += 1
            return time.perf_counter() - started

    def uncached() -> float:
        cache.enabled = False
        database.result_cache_clear()
        return run_round(uncached_results)

    cached_rounds: list[dict] = []

    def cached() -> float:
        cache.enabled = True
        database.result_cache_clear()
        before = database.result_cache_info()
        seconds = run_round(cached_results)
        after = database.result_cache_info()
        hits = after.hits - before.hits
        probes = hits + after.misses - before.misses
        cached_rounds.append({"hit_ratio": hits / probes if probes else 0.0,
                              "cache_entries": after.entries,
                              "cache_bytes": after.bytes})
        return seconds

    paired = paired_ratio(cached, uncached, rounds)
    # Leave the setup the way build_serving_setup handed it out.
    cache.enabled = False
    return {
        "workload": f"synthetic-{mix}",
        "mechanism": "Sorted:result-cache",
        "pointer_scheme": "physical",
        "num_tuples": setup.num_tuples,
        "num_clients": num_clients,
        "num_requests": num_requests,
        "zipf_s": zipf_s,
        "distinct_requests": distinct_requests,
        "point_fraction": point_fraction,
        "selectivity": selectivity,
        "through_server": through_server,
        "offered_qps": offered_qps,
        "uncached_qps": num_requests / paired.reference.median,
        "cached_qps": num_requests / paired.feature.median,
        **_medians(cached_rounds),
        "cached_vs_uncached": paired.ratio,
        "results_agree": _all_agree(uncached_results, cached_results),
        **paired.as_dict("cached_seconds", "uncached_seconds"),
    }


def serving_records(num_tuples: int, num_clients: int,
                    requests_per_client: int, rounds: int) -> list[dict]:
    """The three serving-tier records off one setup.

    The Zipfian cache race runs open-loop through the coalescing server;
    the uniform overhead guard races the engine's batch path directly,
    where a ~5% per-miss cost is measurable above the serving machinery's
    scheduling noise — and, pinning so small an effect against machine
    noise several times its size, leans on sample count: engine-direct
    rounds are cheap (no arrival schedule), so it doubles the request
    count and takes three times the rounds.
    """
    setup = build_serving_setup(num_tuples, result_cache=ResultCacheConfig())
    return [
        {"benchmark": "serving", "measurements": [measure_serving(
            setup, num_clients, requests_per_client, rounds)]},
        {"benchmark": "serving_result_cache", "measurements": [
            measure_result_cache(setup, num_clients, requests_per_client,
                                 rounds)]},
        {"benchmark": "serving_result_cache_uniform", "measurements": [
            measure_result_cache(setup, num_clients, 2 * requests_per_client,
                                 3 * rounds, mix="uniform",
                                 through_server=False)]},
    ]
