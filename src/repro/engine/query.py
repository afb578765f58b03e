"""Query predicates, requests and results.

The query model covers what the evaluation and the planner need: single-column
point and range predicates, and their conjunction over several columns (the
multi-column case of Section 3).  A :class:`ConjunctiveQuery` is what the
planner consumes; :meth:`ConjunctiveQuery.merged` normalises it to at most one
:class:`~repro.index.base.KeyRange` per column so duplicate predicates on the
same column collapse (and contradictory ones mark the query unsatisfiable).

On top of the predicates sit the engine's *transport* objects:
:class:`QueryRequest` is the one client-facing request shape — point, range
and conjunctive queries unified, each naming its table — consumed by
``Database.execute`` / ``Database.execute_many`` / ``Database.explain`` and
by the serving front end (``repro.serving``); :class:`QueryResult` is the one
result shape of a planned read on every tier — ``Database``,
``ShardedDatabase`` and ``Server`` hand back nothing else.  New front ends are
meant to be prototyped against these two objects without touching the engine.

Malformed input is rejected here, at the request boundary: a
:class:`RangePredicate` with ``low > high`` or a NaN bound raises
:class:`~repro.errors.QueryError` at construction, so it can never reach a
coalesced batch and fail (or silently skew) its batch-mates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.lookup import LookupBreakdown
from repro.errors import QueryError
from repro.index.base import KeyRange


@dataclass(frozen=True)
class RangePredicate:
    """``low <= column <= high``; infinite bounds are fine, NaN is not."""

    column: str
    low: float
    high: float

    def __post_init__(self) -> None:
        # ``not low <= high`` (rather than ``low > high``) so a NaN bound,
        # which compares false to everything, is rejected too.
        if not self.low <= self.high:
            problem = "low > high" if self.low > self.high else "a NaN bound"
            raise QueryError(
                f"range predicate on {self.column!r} has {problem}"
            )

    @property
    def key_range(self) -> KeyRange:
        """The predicate as a :class:`KeyRange`."""
        return KeyRange(self.low, self.high)

    @property
    def is_point(self) -> bool:
        """Whether this predicate matches a single value."""
        return self.low == self.high

    def matches(self, value: float) -> bool:
        """Whether ``value`` satisfies the predicate."""
        return self.low <= value <= self.high


def point_predicate(column: str, value: float) -> RangePredicate:
    """Convenience constructor for ``column == value``."""
    return RangePredicate(column, value, value)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunction (AND) of range predicates, the planner's input.

    Attributes:
        predicates: The conjuncts, in the order the caller supplied them.
            Several predicates may name the same column; :meth:`merged`
            intersects them.
    """

    predicates: tuple[RangePredicate, ...]

    def __init__(self, predicates: Iterable[RangePredicate]) -> None:
        conjuncts = tuple(predicates)
        if not conjuncts:
            raise QueryError("a conjunctive query needs at least one predicate")
        for predicate in conjuncts:
            if not isinstance(predicate, RangePredicate):
                raise QueryError(
                    f"conjuncts must be RangePredicate, got {predicate!r}"
                )
        object.__setattr__(self, "predicates", conjuncts)

    def __iter__(self) -> Iterator[RangePredicate]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    @property
    def columns(self) -> list[str]:
        """Distinct predicate columns, in first-appearance order."""
        seen: dict[str, None] = {}
        for predicate in self.predicates:
            seen.setdefault(predicate.column, None)
        return list(seen)

    def merged(self) -> dict[str, KeyRange] | None:
        """One intersected :class:`KeyRange` per column, or ``None``.

        ``None`` means the conjunction is unsatisfiable: two predicates on
        the same column have disjoint ranges, so no row can match.
        """
        if len(self.predicates) == 1:
            predicate = self.predicates[0]
            return {predicate.column: predicate.key_range}
        ranges: dict[str, KeyRange] = {}
        for predicate in self.predicates:
            key_range = predicate.key_range
            existing = ranges.get(predicate.column)
            if existing is not None:
                intersection = existing.intersect(key_range)
                if intersection is None:
                    return None
                ranges[predicate.column] = intersection
            else:
                ranges[predicate.column] = key_range
        return ranges


def conjunction(*predicates: RangePredicate) -> ConjunctiveQuery:
    """Convenience constructor: ``conjunction(p1, p2, ...)``."""
    return ConjunctiveQuery(predicates)


@dataclass(frozen=True)
class QueryRequest:
    """One client-facing read request: a table plus a conjunctive query.

    The unified request object of the engine's API redesign: point probes,
    range queries and multi-column conjunctions are all the same shape (a
    point is a range with ``low == high``; a single predicate is a
    conjunction of one).  ``Database.execute`` answers one,
    ``Database.execute_many`` answers a batch — grouping by table and plan
    shape internally — and the serving front end coalesces concurrently
    arriving requests into exactly those batches.

    Attributes:
        table: Name of the table the request reads.
        query: The conjunctive predicate set.
    """

    table: str
    query: ConjunctiveQuery

    @classmethod
    def point(cls, table: str, column: str, value: float) -> "QueryRequest":
        """``column == value`` on ``table``."""
        return cls(table, ConjunctiveQuery([point_predicate(column, value)]))

    @classmethod
    def range(cls, table: str, column: str, low: float,
              high: float) -> "QueryRequest":
        """``low <= column <= high`` on ``table``."""
        return cls(table, ConjunctiveQuery([RangePredicate(column, low, high)]))

    @classmethod
    def conjunctive(cls, table: str,
                    predicates: Iterable[RangePredicate]) -> "QueryRequest":
        """A conjunction of range predicates on ``table``."""
        return cls(table, ConjunctiveQuery(predicates))

    @classmethod
    def of(cls, table: str,
           query: "ConjunctiveQuery | Iterable[RangePredicate] | RangePredicate",
           ) -> "QueryRequest":
        """Coerce any accepted query shape into a request on ``table``."""
        if isinstance(query, ConjunctiveQuery):
            return cls(table, query)
        if isinstance(query, RangePredicate):
            return cls(table, ConjunctiveQuery([query]))
        return cls(table, ConjunctiveQuery(query))

    @property
    def predicates(self) -> tuple[RangePredicate, ...]:
        """The request's conjuncts."""
        return self.query.predicates

    @property
    def is_point(self) -> bool:
        """Whether the request is a single-column point probe."""
        predicates = self.query.predicates
        return len(predicates) == 1 and predicates[0].is_point


@dataclass(eq=False)
class QueryResult:
    """Result of executing one query through the engine.

    The one result shape of a planned read: ``Database.execute`` /
    ``execute_many`` / ``query_with``, ``ShardedDatabase`` and the serving
    front end all return it.

    Attributes:
        locations: Row locations of the matching tuples — a sorted,
            duplicate-free int64 array on every path.  The misses of one
            batch are views into one shared buffer; a result-cache hit is a
            read-only view of the cache's buffer.  Copy before mutating.
        breakdown: Per-phase time breakdown accumulated by the mechanism that
            served the query (empty for full scans).  Requests answered by
            one coalesced batch share the batch's accumulated breakdown.
        used_index: Name of the index that served the query, or ``None`` when
            the engine fell back to a full table scan.
        plan: The plan that produced the result; ``None`` when the result
            cache answered (``Database.explain`` shows the ``cached``
            marker) and for sharded reads (plans stay shard-side).
        group_size: Number of queries that shared this result's plan template
            in one batched execution (1 for the per-query API).
        epoch: Write epoch the read executed under — two results with the
            same epoch observed the same committed database state.
    """

    locations: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    breakdown: LookupBreakdown = field(default_factory=LookupBreakdown)
    used_index: str | None = None
    plan: object | None = None
    group_size: int = 1
    epoch: int | None = None

    def __len__(self) -> int:
        return len(self.locations)
