"""Timing utilities for the benchmark harness.

Besides the figure benches' stopwatch helpers this holds the one estimator
every gated ratio goes through, :func:`paired_ratio`.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError


def scale_factor(default: float = 1.0) -> float:
    """Global benchmark scale factor, read from the ``REPRO_SCALE`` env var.

    The benchmarks default to workload sizes small enough for pure Python;
    setting ``REPRO_SCALE=10`` (for example) multiplies every tuple count by
    ten to move the experiments closer to the paper's scale.

    Raises:
        ConfigurationError: If the variable is set to anything but a
            positive finite number — a typo must not silently run every
            figure bench at the default size.
    """
    raw = os.environ.get("REPRO_SCALE")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ConfigurationError(
            f"REPRO_SCALE={raw!r} is not a positive number")
    return value


def scaled(count: int, minimum: int = 1) -> int:
    """Apply the global scale factor to a tuple/query count."""
    return max(minimum, int(count * scale_factor()))


@dataclass
class ThroughputResult:
    """Outcome of running a batch of operations against one mechanism."""

    operations: int
    seconds: float

    @property
    def ops_per_second(self) -> float:
        """Operations per second (0 when no time elapsed)."""
        if self.seconds <= 0:
            return 0.0
        return self.operations / self.seconds

    @property
    def kops(self) -> float:
        """Thousands of operations per second, the unit most figures use."""
        return self.ops_per_second / 1e3


@contextmanager
def stopwatch():
    """Context manager yielding a mutable one-element list of elapsed seconds."""
    holder = [0.0]
    started = time.perf_counter()
    try:
        yield holder
    finally:
        holder[0] = time.perf_counter() - started


@dataclass(frozen=True)
class Spread:
    """Median and quartiles of one side's per-round costs."""

    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, samples: list[float]) -> "Spread":
        """Summarise ``samples`` (linear-interpolated quartiles)."""
        q1, median, q3 = np.percentile(samples, [25, 50, 75]).tolist()
        return cls(median=median, q1=q1, q3=q3)


@dataclass(frozen=True)
class PairedRatio:
    """Outcome of :func:`paired_ratio`: the gated ratio and both sides."""

    ratio: float
    ratios: tuple[float, ...]
    feature: Spread
    reference: Spread

    def as_dict(self, feature_name: str, reference_name: str) -> dict:
        """Record fields: per-round ratios plus each side's spread, keyed
        by the names the suite gives its sides (unit included, e.g.
        ``"coalesced_seconds"``)."""
        return {
            "rounds": len(self.ratios),
            "round_ratios": list(self.ratios),
            feature_name: asdict(self.feature),
            reference_name: asdict(self.reference),
        }


def paired_ratio(feature: Callable[[], float | None],
                 reference: Callable[[], float | None], rounds: int,
                 clock: Callable[[], float] = time.perf_counter,
                 ) -> PairedRatio:
    """Race two sides over paired rounds; the median per-round ratio wins.

    Each round runs both sides back to back and contributes one ratio
    ``reference cost / feature cost`` — how many times faster the feature
    is.  Which side goes first alternates round over round (the reference
    opens the even rounds), so monotonic machine-load drift — frequency
    scaling, a competing tenant — cannot tax one side systematically, and
    the reported ratio is the *median of the per-round ratios*, which
    cancels drift between rounds that a ratio of best-of-N times or of
    medians would attribute to one side.

    A side is a zero-argument callable running one round.  Returning
    ``None`` has the whole call timed with ``clock``; returning a number
    reports the cost the side measured itself — the seconds of a narrower
    span (an open-loop round counts schedule start to last completion, a
    write race excludes building its database) or seconds per row when
    the two sides do different amounts of work.
    """
    if rounds < 1:
        raise ConfigurationError("paired_ratio needs at least one round")
    feature_costs: list[float] = []
    reference_costs: list[float] = []
    sides = ((reference, reference_costs), (feature, feature_costs))
    for round_index in range(rounds):
        for side, costs in (sides if round_index % 2 == 0 else sides[::-1]):
            started = clock()
            own_cost = side()
            elapsed = clock() - started
            costs.append(elapsed if own_cost is None else own_cost)
    ratios = tuple(slow / fast
                   for fast, slow in zip(feature_costs, reference_costs))
    return PairedRatio(ratio=float(np.median(ratios)), ratios=ratios,
                       feature=Spread.of(feature_costs),
                       reference=Spread.of(reference_costs))


class SimulatedClock:
    """Combines wall-clock CPU time with charged simulated I/O latency.

    Used by the disk-based experiments (Figure 24): throughput is reported
    over ``cpu_seconds + io_seconds`` so that the relative cost of index
    probes vs. heap fetches matches a machine with a real device, independent
    of the speed of the machine running the reproduction.
    """

    def __init__(self, disk) -> None:
        self._disk = disk
        self._cpu_started: float | None = None
        self._io_baseline = 0.0
        self.cpu_seconds = 0.0
        self.io_seconds = 0.0

    def start(self) -> None:
        """Begin a measurement window."""
        self._cpu_started = time.perf_counter()
        self._io_baseline = self._disk.simulated_io_seconds()

    def stop(self) -> None:
        """End the measurement window and accumulate both time components."""
        if self._cpu_started is None:
            return
        self.cpu_seconds += time.perf_counter() - self._cpu_started
        self.io_seconds += self._disk.simulated_io_seconds() - self._io_baseline
        self._cpu_started = None

    @property
    def total_seconds(self) -> float:
        """CPU plus simulated I/O seconds."""
        return self.cpu_seconds + self.io_seconds
