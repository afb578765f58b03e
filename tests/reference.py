"""Brute-force reference answers the tests compare the engine against.

Deliberately independent of every index, mechanism and executor: one NumPy
mask over a projection of the live rows.
"""

from __future__ import annotations

import numpy as np

from repro.storage.table import Table


def scan_locations(table: Table, *predicates) -> list[int]:
    """Sorted locations of the live rows satisfying every predicate.

    ``predicates`` are objects with ``column`` / ``low`` / ``high``
    (:class:`~repro.engine.query.RangePredicate`); bounds are inclusive.
    """
    columns = [predicate.column for predicate in predicates]
    slots, *values = table.project(columns)
    mask = np.ones(slots.shape, dtype=bool)
    for predicate, column_values in zip(predicates, values):
        mask &= (column_values >= predicate.low) & (column_values <= predicate.high)
    return sorted(int(slot) for slot in slots[mask])
