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

Sustained QPS is completions over the span from the schedule's start to
the last completion; latency is completion minus *scheduled* arrival (so
queueing delay counts, which is what makes an open-loop p99 honest).
Rounds are interleaved and each side is scored by its best round; the two
sides' per-request results are compared location list by location list, so
a coalescing correctness bug shows up as ``results_agree=False`` rather
than as a throughput win.

Lives in ``repro.bench`` so the standalone benchmark
(``benchmarks/bench_serving.py``) and the tier-1 smoke share one
implementation.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.cache.result_cache import ResultCacheConfig
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest
from repro.errors import ConfigurationError
from repro.serving import Server, ServerConfig, ServerStats
from repro.workloads.queries import range_queries
from repro.workloads.synthetic import generate_synthetic, load_synthetic


@dataclass
class ServingSetup:
    """One Synthetic database served by a sorted-column index on colC."""

    database: Database
    table_name: str
    stored_targets: np.ndarray
    target_domain: tuple[float, float]
    num_tuples: int


def build_serving_setup(num_tuples: int, seed: int = 42,
                        result_cache: ResultCacheConfig | None = None,
                        ) -> ServingSetup:
    """Load Synthetic-Linear and index colC with the sorted-column mechanism.

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
                          method=IndexMethod.SORTED_COLUMN)
    targets = dataset.columns["colC"]
    return ServingSetup(
        database=database, table_name=table_name, stored_targets=targets,
        target_domain=(float(targets.min()), float(targets.max())),
        num_tuples=num_tuples,
    )


@dataclass
class ServingMeasurement:
    """Coalesced-vs-per-call outcome of one open-loop run."""

    num_tuples: int
    num_clients: int
    num_requests: int
    offered_qps: float
    percall_qps: float
    coalesced_qps: float
    percall_p99_ms: float
    coalesced_p99_ms: float
    percall_p50_ms: float
    coalesced_p50_ms: float
    mean_batch: float
    max_batch: int
    results_agree: bool
    # Request-mix parameters, recorded so emitted records are
    # self-describing across trajectory runs.
    point_fraction: float = 0.5
    selectivity: float = 2e-3
    mix: str = "uniform"

    @property
    def coalesced_vs_percall(self) -> float:
        """Sustained-QPS ratio of the server over per-call (the gated one)."""
        if self.percall_qps <= 0:
            return float("inf")
        return self.coalesced_qps / self.percall_qps

    def as_dict(self) -> dict:
        """JSON-ready representation (gated by ``check_regression.py``)."""
        return {
            "workload": "synthetic",
            "mechanism": "Sorted:serving",
            "pointer_scheme": "physical",
            "num_tuples": self.num_tuples,
            "num_clients": self.num_clients,
            "num_requests": self.num_requests,
            "mix": self.mix,
            "point_fraction": self.point_fraction,
            "selectivity": self.selectivity,
            "offered_qps": self.offered_qps,
            "percall_qps": self.percall_qps,
            "coalesced_qps": self.coalesced_qps,
            "percall_p99_ms": self.percall_p99_ms,
            "coalesced_p99_ms": self.coalesced_p99_ms,
            "percall_p50_ms": self.percall_p50_ms,
            "coalesced_p50_ms": self.coalesced_p50_ms,
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
            "coalesced_vs_percall": self.coalesced_vs_percall,
            "results_agree": self.results_agree,
        }


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
                   num_requests: int, issue, drain) -> tuple[float, np.ndarray]:
    """Drive one open-loop round; returns (sustained QPS, latency array).

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
    elapsed = max(float(done_times.max()) - start_holder[0], 1e-9)
    return num_requests / elapsed, latencies


def _coalesced_round(database, requests: list[QueryRequest],
                     schedules: list[list[tuple[int, float]]],
                     num_requests: int, results_out: list,
                     config: ServerConfig | None,
                     ) -> tuple[float, np.ndarray, ServerStats]:
    """One open-loop round through the coalescing server.

    Issues hand the request to the server and move on; a dedicated
    collector thread consumes the futures in issue order and timestamps
    each completion (see the module docstring for why stamping must stay
    off the issue path).  Returns (sustained QPS, latencies, server
    stats).
    """
    done_times = np.zeros(num_requests)
    latencies = np.zeros(num_requests)
    pending: list = []
    with Server(database, config) as server:

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

        qps, latencies = _run_open_loop(schedules, num_requests,
                                        issue_coalesced, drain_coalesced)
        stats = server.stats()
    return qps, latencies, stats


def measure_serving(setup: ServingSetup, num_clients: int = 64,
                    requests_per_client: int = 40,
                    point_fraction: float = 0.5, selectivity: float = 2e-3,
                    overload: float = 3.0, rounds: int = 5,
                    issuing_threads: int | None = None, seed: int = 42,
                    config: ServerConfig | None = None,
                    ) -> tuple[ServingMeasurement, ServerStats]:
    """Race the coalescing server against per-call threads, open loop.

    The offered rate is ``overload`` times the engine's calibrated serial
    per-call capacity, so both contenders are saturated and the measured
    quantity is *sustained* throughput, not arrival-rate tracking.  Returns
    the measurement plus the server stats of the best coalesced round.
    """
    database = setup.database
    num_requests = num_clients * requests_per_client
    if issuing_threads is None:
        # A small pool is deliberate: each driver thread multiplexes many
        # client streams, so arrival fidelity is preserved while the GIL
        # churn of per-arrival wakeups stays off the measurement (more
        # drivers slow *both* contenders but the coalescing server, whose
        # worker needs long GIL slices for its batch passes, suffers more).
        issuing_threads = min(4, num_clients)
    requests = _build_requests(setup, num_requests, point_fraction,
                               selectivity, seed)

    # Calibrate serial per-call capacity (also warms the plan cache).
    sample = requests[: min(512, num_requests)]
    started = time.perf_counter()
    for request in sample:
        database.execute(request)
    serial_qps = len(sample) / (time.perf_counter() - started)
    offered_qps = overload * serial_qps
    schedules = _client_schedules(num_clients, num_requests, offered_qps,
                                  issuing_threads)

    percall_results: list = [None] * num_requests
    coalesced_results: list = [None] * num_requests
    best_percall = (0.0, None)
    best_coalesced = (0.0, None, None)

    for _ in range(rounds):
        done_times = np.zeros(num_requests)
        latencies = np.zeros(num_requests)

        def issue_percall(index: int, target: float) -> None:
            percall_results[index] = database.execute(requests[index])
            now = time.perf_counter()
            done_times[index] = now
            latencies[index] = now - target

        qps, _ = _run_open_loop(schedules, num_requests, issue_percall,
                                lambda: (done_times, latencies))
        if qps > best_percall[0]:
            best_percall = (qps, latencies.copy())

        qps, latencies, stats = _coalesced_round(
            database, requests, schedules, num_requests, coalesced_results,
            config)
        if qps > best_coalesced[0]:
            best_coalesced = (qps, latencies.copy(), stats)

    agree = all(
        percall is not None and coalesced is not None
        and np.array_equal(percall.locations, coalesced.locations)
        for percall, coalesced in zip(percall_results, coalesced_results)
    )
    percall_lat = best_percall[1]
    coalesced_lat = best_coalesced[1]
    stats = best_coalesced[2]
    measurement = ServingMeasurement(
        num_tuples=setup.num_tuples, num_clients=num_clients,
        num_requests=num_requests, offered_qps=offered_qps,
        percall_qps=best_percall[0], coalesced_qps=best_coalesced[0],
        percall_p99_ms=float(np.percentile(percall_lat, 99)) * 1e3,
        coalesced_p99_ms=float(np.percentile(coalesced_lat, 99)) * 1e3,
        percall_p50_ms=float(np.percentile(percall_lat, 50)) * 1e3,
        coalesced_p50_ms=float(np.percentile(coalesced_lat, 50)) * 1e3,
        mean_batch=stats.mean_batch, max_batch=stats.max_batch,
        results_agree=agree,
        point_fraction=point_fraction, selectivity=selectivity,
    )
    return measurement, stats


@dataclass
class ResultCacheMeasurement:
    """Cache-on vs cache-off outcome of one coalesced open-loop race."""

    num_tuples: int
    num_clients: int
    num_requests: int
    mix: str
    zipf_s: float
    distinct_requests: int
    point_fraction: float
    selectivity: float
    through_server: bool
    offered_qps: float
    uncached_qps: float
    cached_qps: float
    cached_vs_uncached: float
    hit_ratio: float
    cache_entries: int
    cache_bytes: int
    results_agree: bool

    def as_dict(self) -> dict:
        """JSON-ready representation (gated by ``check_regression.py``)."""
        return {
            "workload": f"synthetic-{self.mix}",
            "mechanism": "Sorted:result-cache",
            "pointer_scheme": "physical",
            "num_tuples": self.num_tuples,
            "num_clients": self.num_clients,
            "num_requests": self.num_requests,
            "mix": self.mix,
            "zipf_s": self.zipf_s,
            "distinct_requests": self.distinct_requests,
            "point_fraction": self.point_fraction,
            "selectivity": self.selectivity,
            "through_server": self.through_server,
            "offered_qps": self.offered_qps,
            "uncached_qps": self.uncached_qps,
            "cached_qps": self.cached_qps,
            "hit_ratio": self.hit_ratio,
            "cache_entries": self.cache_entries,
            "cache_bytes": self.cache_bytes,
            "cached_vs_uncached": self.cached_vs_uncached,
            "results_agree": self.results_agree,
        }


def measure_result_cache(setup: ServingSetup, num_clients: int = 64,
                         requests_per_client: int = 40,
                         mix: str = "zipfian", zipf_s: float = 1.1,
                         distinct_requests: int = 192,
                         point_fraction: float = 0.25,
                         selectivity: float = 8e-3, overload: float = 8.0,
                         rounds: int = 3, issuing_threads: int | None = None,
                         seed: int = 42, config: ServerConfig | None = None,
                         through_server: bool = True,
                         ) -> ResultCacheMeasurement:
    """Race cache-on vs cache-off over the same engine, paired rounds.

    Both contenders are the *same* engine facing the same requests; the
    only difference is whether the epoch-keyed result cache answers
    probes.  Each round runs both sides back to back — alternating
    which goes first round over round, so monotonic load drift cannot
    systematically tax one side — and contributes one paired QPS ratio;
    the gated ``cached_vs_uncached`` is the *median* of those paired
    ratios, which cancels machine-load drift that a best-of-rounds
    score would misattribute to one side.
    Every cached round starts from a cleared cache (doorkeeper
    included), so the reported hit ratio is earned entirely within the
    round — the within-workload reuse the Zipfian mix supplies — never
    carried over.  The two sides' results are compared location by
    location: a staleness bug shows up as ``results_agree=False``
    rather than as a throughput win.

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
    if issuing_threads is None:
        issuing_threads = min(4, num_clients)
    requests = _build_requests(setup, num_requests, point_fraction,
                               selectivity, seed, mix=mix, zipf_s=zipf_s,
                               distinct=distinct_requests)

    uncached_results: list = [None] * num_requests
    cached_results: list = [None] * num_requests
    cache.enabled = False

    if through_server:
        # Calibrate serial per-call capacity with the cache off (also
        # warms the plan cache, which both sides share).
        sample = requests[: min(512, num_requests)]
        started = time.perf_counter()
        for request in sample:
            database.execute(request)
        serial_qps = len(sample) / (time.perf_counter() - started)
        offered_qps = overload * serial_qps
        schedules = _client_schedules(num_clients, num_requests, offered_qps,
                                      issuing_threads)

        def run_round(results_out: list) -> float:
            qps, _, _ = _coalesced_round(database, requests, schedules,
                                         num_requests, results_out, config)
            return qps
    else:
        offered_qps = 0.0
        database.execute_many(requests)  # warm the plan cache
        batch_size = 256
        batches = [requests[start:start + batch_size]
                   for start in range(0, num_requests, batch_size)]

        def run_round(results_out: list) -> float:
            started = time.perf_counter()
            position = 0
            for batch in batches:
                for result in database.execute_many(batch):
                    results_out[position] = result.locations
                    position += 1
            return num_requests / (time.perf_counter() - started)

    def run_off() -> float:
        cache.enabled = False
        database.result_cache_clear()
        return run_round(uncached_results)

    def run_on() -> tuple[float, float, int, int]:
        cache.enabled = True
        database.result_cache_clear()
        before = database.result_cache_info()
        on_qps = run_round(cached_results)
        after = database.result_cache_info()
        hits = after.hits - before.hits
        probes = hits + after.misses - before.misses
        hit_ratio = hits / probes if probes else 0.0
        return on_qps, hit_ratio, after.entries, after.bytes

    ratios: list[float] = []
    uncached_qps: list[float] = []
    cached_rounds: list[tuple[float, float, int, int]] = []
    for round_index in range(rounds):
        # Alternate which side runs first: monotonic machine-load drift
        # within a round (frequency scaling, competing tenants) would
        # otherwise tax whichever side always ran second, biasing every
        # paired ratio the same way.
        if round_index % 2 == 0:
            off_qps = run_off()
            cached_round = run_on()
        else:
            cached_round = run_on()
            off_qps = run_off()
        uncached_qps.append(off_qps)
        cached_rounds.append(cached_round)
        ratios.append(cached_round[0] / off_qps)

    # Leave the setup the way build_serving_setup handed it out.
    cache.enabled = False
    # The served rounds store QueryResults, the engine-direct rounds bare
    # location arrays (see above).
    agree = all(
        uncached is not None and cached is not None
        and np.array_equal(getattr(uncached, "locations", uncached),
                           getattr(cached, "locations", cached))
        for uncached, cached in zip(uncached_results, cached_results)
    )
    median_ratio = statistics.median(ratios)
    # Report the cache-side stats of the round closest to the median
    # ratio, so the headline numbers describe one coherent round.
    median_round = min(range(rounds),
                       key=lambda index: abs(ratios[index] - median_ratio))
    on_qps, hit_ratio, entries, nbytes = cached_rounds[median_round]
    return ResultCacheMeasurement(
        num_tuples=setup.num_tuples, num_clients=num_clients,
        num_requests=num_requests, mix=mix, zipf_s=zipf_s,
        distinct_requests=distinct_requests, point_fraction=point_fraction,
        selectivity=selectivity, through_server=through_server,
        offered_qps=offered_qps,
        uncached_qps=statistics.median(uncached_qps), cached_qps=on_qps,
        cached_vs_uncached=median_ratio, hit_ratio=hit_ratio,
        cache_entries=entries, cache_bytes=nbytes, results_agree=agree,
    )
