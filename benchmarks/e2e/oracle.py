"""NumPy oracle: what every read must return, with the DML stream applied.

The oracle mirrors the rows the engine acknowledged — location and target
value per row, in insertion order — and answers a predicate two ways:

* ``expected`` slices a lazily sorted copy of the live target values
  (``O(log n + k)``), cheap enough to check tens of thousands of requests
  outside the timed windows;
* ``expected_brute`` is the plain boolean mask over every row.  Every
  ``BRUTE_EVERY``-th checked request is answered both ways, so the sorted
  shortcut is itself checked against brute force on every run.

A request counts as failed when the engine's location list differs from the
oracle's in any way (missing, extra, duplicated or unsorted locations).
"""

from __future__ import annotations

import numpy as np

BRUTE_EVERY = 16


class Oracle:
    """Live rows by location, fed with exactly what the engine acknowledged."""

    def __init__(self) -> None:
        self._locations = np.empty(0, dtype=np.int64)
        self._targets = np.empty(0, dtype=np.float64)
        self._live = np.empty(0, dtype=bool)
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        self.checked = 0
        self.mismatches = 0

    # ---------------------------------------------------------------- DML

    def insert(self, locations, targets: np.ndarray) -> None:
        """Rows the engine accepted, with the locations it returned."""
        locations = np.asarray(locations, dtype=np.int64)
        self._locations = np.concatenate([self._locations, locations])
        self._targets = np.concatenate(
            [self._targets, np.asarray(targets, dtype=np.float64)])
        self._live = np.concatenate(
            [self._live, np.ones(locations.size, dtype=bool)])
        self._sorted = None

    def _position(self, location: int) -> int:
        position = int(np.searchsorted(self._locations, location))
        if (position >= self._locations.size
                or self._locations[position] != location):
            raise KeyError(f"oracle does not know location {location}")
        return position

    def delete(self, location: int) -> None:
        self._live[self._position(location)] = False
        self._sorted = None

    def update(self, location: int, target: float) -> None:
        self._targets[self._position(location)] = target
        self._sorted = None

    @property
    def live_rows(self) -> int:
        return int(self._live.sum())

    def live_location(self, rank: float) -> int:
        """The live row a rank in ``[0, 1)`` selects (for DML victims)."""
        live = np.flatnonzero(self._live)
        return int(self._locations[live[int(rank * live.size)]])

    # -------------------------------------------------------------- reads

    def expected(self, low: float, high: float) -> np.ndarray:
        if self._sorted is None:
            targets = self._targets[self._live]
            order = np.argsort(targets, kind="stable")
            self._sorted = (targets[order], self._locations[self._live][order])
        targets, locations = self._sorted
        start = np.searchsorted(targets, low, side="left")
        stop = np.searchsorted(targets, high, side="right")
        return np.sort(locations[start:stop])

    def expected_brute(self, low: float, high: float) -> np.ndarray:
        mask = self._live & (self._targets >= low) & (self._targets <= high)
        return np.sort(self._locations[mask])

    def check(self, low: float, high: float, locations) -> bool:
        """Score one answer; returns whether it was right."""
        got = np.asarray(locations, dtype=np.int64)
        want = self.expected(low, high)
        right = got.size == want.size and bool(np.array_equal(got, want))
        if right and self.checked % BRUTE_EVERY == 0:
            right = bool(np.array_equal(want, self.expected_brute(low, high)))
        self.checked += 1
        if not right:
            self.mismatches += 1
        return right
