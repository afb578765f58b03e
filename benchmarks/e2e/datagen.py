"""Seeded inputs for the end-to-end benchmark: tables, DML and request streams.

NumPy only.  Nothing here imports the engine — the workloads turn these
arrays into ``QueryRequest`` objects and column batches, so the program
receives only generated inputs.  Every stream draws from its own generator
``default_rng([seed, stream, index])``: the same ``--seed`` always yields the
same requests and the same DML, and changing the size of one stream never
shifts another.  The initial table is the one thing ``--seed`` does not
reach (``TABLE_SEED``).

Table ``synthetic`` (the paper's Appendix A): ``colA`` primary key, ``colB``
host column derived from ``colC``, ``colC`` target column the queries filter
on, ``colD`` payload.  1% of ``colB`` is displaced by uniform noise of
0.15x-0.3x the host span, so the TRS-Tree has outliers to park.
"""

from __future__ import annotations

import numpy as np

TABLE = "synthetic"
COLUMNS = ("colA", "colB", "colC", "colD")
TARGET_LOW, TARGET_HIGH = 0.0, 1_000_000.0
TARGET_SPAN = TARGET_HIGH - TARGET_LOW
USER_BYTES_PER_ROW = 8 * len(COLUMNS)
NOISE_FRACTION = 0.01
# The driver takes a metric's spread over runs with ten different seeds.  A
# table drawn from --seed moves the sigmoid TRS-Tree between 351 and 365
# leaves and 3,560 and 4,190 outliers, which is 5% of index_bytes_per_row
# between seeds and would force a bound far wider than the 2% the paper's
# space claim deserves.  So the data set is fixed, as the paper's is, and
# --seed drives what is asked of it: every request and DML stream.
TABLE_SEED = 12

# Stream identifiers (second word of the generator seed).
_TABLE, _RANGES, _MIXED_READS, _POINTS, _POOL, _DRAWS, _DML, _VICTIMS = range(8)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def correlate(kind: str, target: np.ndarray) -> np.ndarray:
    """Host value of a clean row: ``colB = Fn(colC)``."""
    if kind == "linear":
        return 2.0 * target + 10.0
    if kind == "sigmoid":
        midpoint = (TARGET_LOW + TARGET_HIGH) / 2.0
        steepness = 8.0 / TARGET_SPAN
        return TARGET_HIGH / (1.0 + np.exp(-steepness * (target - midpoint)))
    raise ValueError(f"unknown correlation {kind!r}")


def _host_span(kind: str) -> float:
    ends = correlate(kind, np.array([TARGET_LOW, TARGET_HIGH]))
    return float(ends[1] - ends[0])


def _displace(rng: np.random.Generator, kind: str, hosts: np.ndarray) -> None:
    """Replace ``NOISE_FRACTION`` of ``hosts`` by far-off values, in place."""
    noisy = int(round(hosts.size * NOISE_FRACTION))
    if noisy == 0:
        return
    span = _host_span(kind)
    positions = rng.choice(hosts.size, size=noisy, replace=False)
    hosts[positions] += (rng.choice((-1.0, 1.0), size=noisy)
                         * rng.uniform(0.15 * span, 0.3 * span, size=noisy))


def table_columns(rows: int, kind: str) -> dict[str, np.ndarray]:
    """The initial table, ready for ``insert_many``; the same for every seed."""
    rng = _rng(TABLE_SEED, _TABLE)
    target = rng.uniform(TARGET_LOW, TARGET_HIGH, size=rows)
    host = correlate(kind, target)
    _displace(rng, kind, host)
    return {"colA": np.arange(rows, dtype=np.float64), "colB": host,
            "colC": target, "colD": rng.uniform(0.0, 1.0, size=rows)}


def _ranges(rng: np.random.Generator, count: int,
            selectivity: float) -> tuple[np.ndarray, np.ndarray]:
    width = TARGET_SPAN * selectivity
    lows = rng.uniform(TARGET_LOW, TARGET_HIGH - width, size=count)
    return lows, lows + width


def range_requests(seed: int, repetition: int, count: int,
                   selectivity: float) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform range predicates on ``colC`` for one repetition.

    Shared by ``range_linear`` and ``shard_range`` so that both answer the
    very same stream.
    """
    return _ranges(_rng(seed, _RANGES, repetition), count, selectivity)


def mixed_read_requests(seed: int, iteration: int, count: int,
                        selectivity: float) -> tuple[np.ndarray, np.ndarray]:
    """The range batch ``mixed_rw`` reads right after iteration's insert."""
    return _ranges(_rng(seed, _MIXED_READS, iteration), count, selectivity)


def point_and_range_requests(seed: int, repetition: int, count: int,
                             stored: np.ndarray, point_share: float,
                             selectivity: float,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """A shuffled mix of point probes on stored values and narrow ranges."""
    rng = _rng(seed, _POINTS, repetition)
    lows, highs = _ranges(rng, count, selectivity)
    points = rng.random(count) < point_share
    values = stored[rng.integers(0, stored.size, size=count)]
    lows[points] = values[points]
    highs[points] = values[points]
    return lows, highs


def request_pool(seed: int, size: int, stored: np.ndarray,
                 selectivity: float) -> tuple[np.ndarray, np.ndarray]:
    """``size`` distinct requests, half points / half ranges, shuffled.

    The pool index is the popularity rank, so shuffling here keeps request
    type independent of popularity.
    """
    rng = _rng(seed, _POOL)
    lows, highs = _ranges(rng, size, selectivity)
    values = rng.choice(np.unique(stored), size=size // 2, replace=False)
    positions = rng.permutation(size)[:size // 2]
    lows[positions] = values
    highs[positions] = values
    return lows, highs


def zipf_draws(seed: int, stream: int, count: int, pool_size: int,
               exponent: float) -> np.ndarray:
    """``count`` pool indices with P(rank r) proportional to r**-exponent."""
    weights = np.arange(1, pool_size + 1, dtype=np.float64) ** -exponent
    cumulative = np.cumsum(weights / weights.sum())
    draws = _rng(seed, _DRAWS, stream).random(count)
    return np.minimum(np.searchsorted(cumulative, draws), pool_size - 1)


# A tenth of the rows ``mixed_rw`` inserts follow a second line inside a slice
# of the target domain.  Their host values sit far outside the leaf model's
# band, so they land in the outlier buffer and it grows through the run.
# At these sizes the leaf stays under the TRS-Tree's 10% outlier ratio, so
# ``reorganize()`` finds no candidate; README ("Findings") records what
# happened when the share was raised until it did.
SHIFTED_SHARE = 0.10
SHIFTED_LOW, SHIFTED_HIGH = 400_000.0, 600_000.0


def insert_batch(seed: int, iteration: int, count: int,
                 first_key: int) -> dict[str, np.ndarray]:
    """One ``insert_many`` batch of the ``mixed_rw`` stream (linear table)."""
    rng = _rng(seed, _DML, iteration)
    target = rng.uniform(TARGET_LOW, TARGET_HIGH, size=count)
    # An exact share, not a coin per row: the outlier buffer then grows by
    # the same number of entries under every seed.
    shifted = rng.permutation(count) < round(count * SHIFTED_SHARE)
    target[shifted] = rng.uniform(SHIFTED_LOW, SHIFTED_HIGH,
                                  size=int(shifted.sum()))
    host = correlate("linear", target)
    host[shifted] = 2.2 * target[shifted] + 10.0
    _displace(rng, "linear", host)
    keys = np.arange(first_key, first_key + count, dtype=np.float64)
    return {"colA": keys, "colB": host, "colC": target,
            "colD": rng.uniform(0.0, 1.0, size=count)}


def victims(seed: int, iteration: int, deletes: int, updates: int,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which live rows a delete/update round touches, and the new targets.

    Returns ``(delete_ranks, update_ranks, new_targets)`` where a rank in
    ``[0, 1)`` selects a row out of the rows live at that moment — the
    workload resolves it against its oracle, which knows them.
    """
    rng = _rng(seed, _VICTIMS, iteration)
    return (rng.random(deletes), rng.random(updates),
            rng.uniform(TARGET_LOW, TARGET_HIGH, size=updates))
