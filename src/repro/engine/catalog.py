"""System catalog: tables and their indexes.

The catalog is deliberately thin — it owns no behaviour beyond bookkeeping —
but it is what lets the database facade answer questions such as "which
columns of this table already carry a complete index?" (the host candidates
for a new Hermit index) and "how much memory do the existing vs. newly created
indexes consume?" (the space-breakdown figures).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import CatalogError
from repro.index.base import KeyRange
from repro.storage.table import Table


class IndexMethod(enum.Enum):
    """How a secondary index is physically realised.

    ``BTREE`` is the one complete exact index, an
    :class:`~repro.index.ordered.OrderedIndex` priced as the paper's
    B+-tree; it is also the only method that can host a correlation-based
    mechanism.  ``HERMIT`` and ``CORRELATION_MAP`` are the paper's two
    succinct mechanisms, and ``AUTO`` lets the advisor choose.
    """

    BTREE = "btree"
    HERMIT = "hermit"
    CORRELATION_MAP = "correlation_map"
    AUTO = "auto"


# Assumed selectivity when a column carries no usable statistics; chosen so
# the cost model's default ranking reproduces the pre-planner executor's
# fixed preference order (host index, then Hermit, then CM).
DEFAULT_SELECTIVITY = 0.05


@dataclass(frozen=True)
class ColumnStats:
    """Lightweight per-column optimizer statistics served by the catalog.

    Derived from the running min/max/count the table maintains on insert;
    the cost model assumes a uniform value distribution over ``[minimum,
    maximum]``, which is exactly the granularity the paper's "optimizer
    statistics" provide.
    """

    row_count: int
    minimum: float
    maximum: float
    # Whether min/max have been observed (false on empty columns); fixed at
    # construction, so a selectivity estimate does not re-derive it.
    has_range: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "has_range", math.isfinite(self.minimum)
                           and math.isfinite(self.maximum))

    def selectivity(self, key_range: KeyRange) -> float:
        """Estimated fraction of rows matching ``key_range`` (uniform model).

        Falls back to :data:`DEFAULT_SELECTIVITY` when the column has no
        observed range, and floors non-empty overlaps at one row so point
        predicates never estimate to zero.
        """
        if self.row_count == 0:
            return 0.0
        if not self.has_range:
            return DEFAULT_SELECTIVITY
        low = max(key_range.low, self.minimum)
        high = min(key_range.high, self.maximum)
        if high < low:
            return 0.0
        domain = self.maximum - self.minimum
        if domain <= 0:
            return 1.0
        return min(1.0, max((high - low) / domain, 1.0 / self.row_count))

    def estimated_rows(self, key_range: KeyRange) -> float:
        """Estimated number of matching rows."""
        return self.row_count * self.selectivity(key_range)

    def selectivity_array(self, lows: "np.ndarray",
                          highs: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`selectivity` over aligned bound arrays.

        Used by the batch planner to bucket a whole query batch in one
        pass; the expression tree mirrors the scalar method exactly so
        both produce bit-identical selectivities (and therefore identical
        cache-key buckets) for the same predicate.
        """
        count = len(lows)
        if self.row_count == 0:
            return np.zeros(count, dtype=np.float64)
        if not self.has_range:
            return np.full(count, DEFAULT_SELECTIVITY, dtype=np.float64)
        low = np.maximum(lows, self.minimum)
        high = np.minimum(highs, self.maximum)
        domain = self.maximum - self.minimum
        if domain <= 0:
            return np.where(high < low, 0.0, 1.0)
        result = np.minimum(
            1.0, np.maximum((high - low) / domain, 1.0 / self.row_count)
        )
        result[high < low] = 0.0
        return result


@dataclass
class IndexEntry:
    """Catalog record of one secondary index.

    Attributes:
        name: Unique index name.
        table_name: Table the index belongs to.
        column: Indexed (target) column.
        method: Physical mechanism backing the index.
        mechanism: The mechanism object (BaselineSecondaryIndex, HermitIndex
            or CorrelationMap); duck-typed by the executor and the planner's
            access paths.
        host_column: Host column for correlation-based mechanisms.
        is_preexisting: Whether the index existed before the experiment's
            "new" indexes were added; drives the space-breakdown labels.
        definition: JSON-serialisable creation parameters (resolved method,
            host column, TRS-Tree/CM configuration).  The durability layer
            logs it on ``create_index`` and embeds it in checkpoint
            manifests so recovery can rebuild the mechanism from data.
    """

    name: str
    table_name: str
    column: str
    method: IndexMethod
    mechanism: object
    host_column: str | None = None
    is_preexisting: bool = False
    definition: dict | None = None


@dataclass
class TableEntry:
    """Catalog record of one table and its primary index.

    ``data_epoch`` counts committed mutations (DML write epochs) against the
    table — :meth:`Catalog.bump_data_epoch` is called by the database facade
    once per committed ``insert_many`` / ``update`` / ``delete``.  The
    statistics cache and the planner's plan cache key their freshness on it,
    which is what lets a long-lived plan template notice that the table it
    was priced against has drifted even when the row count stays within the
    coarse 2x replan window.
    """

    name: str
    table: Table
    primary_index: object
    indexes: dict[str, IndexEntry] = field(default_factory=dict)
    data_epoch: int = 0


class Catalog:
    """Registry of tables and their indexes.

    Args:
        epoch_guard: Optional callable invoked with a short label by every
            catalog mutator (``add_table``, ``add_index``, ``drop_index``,
            ``bump_data_epoch``).  ``Database`` wires it to
            :meth:`EpochManager.note_mutation
            <repro.engine.epochs.EpochManager.note_mutation>` so the
            epoch-lock discipline checker sees catalog mutations; a bare
            ``Catalog()`` (tests, planner fixtures) runs unguarded.
    """

    def __init__(self, epoch_guard=None) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._version = 0
        self._epoch_guard = epoch_guard
        # (table, column) -> (observation count, data epoch, stats); rebuilt
        # when the table has observed new values, committed a mutation epoch
        # or changed its live row count.
        self._stats_cache: dict[tuple[str, str],
                                tuple[int, int, ColumnStats]] = {}

    def _guard(self, label: str) -> None:
        if self._epoch_guard is not None:
            self._epoch_guard(label)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every index DDL.

        The planner keys its plan cache on this: a cached plan is only
        replayed while the index set it was chosen from is unchanged.
        """
        return self._version

    def add_table(self, name: str, table: Table, primary_index: object) -> TableEntry:
        """Register a table.

        Raises:
            CatalogError: If a table with the same name already exists.
        """
        self._guard("catalog.add_table")
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        entry = TableEntry(name=name, table=table, primary_index=primary_index)
        self._tables[name] = entry
        return entry

    def table_entry(self, name: str) -> TableEntry:
        """Look up a table entry by name.

        Raises:
            CatalogError: If the table does not exist.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def add_index(self, entry: IndexEntry) -> None:
        """Register a secondary index.

        Raises:
            CatalogError: If the index name is taken on that table.
        """
        self._guard("catalog.add_index")
        table_entry = self.table_entry(entry.table_name)
        if entry.name in table_entry.indexes:
            raise CatalogError(
                f"index {entry.name!r} already exists on table {entry.table_name!r}"
            )
        table_entry.indexes[entry.name] = entry
        self._version += 1

    def drop_index(self, table_name: str, index_name: str) -> IndexEntry:
        """Remove and return a secondary index entry."""
        self._guard("catalog.drop_index")
        table_entry = self.table_entry(table_name)
        try:
            dropped = table_entry.indexes.pop(index_name)
        except KeyError:
            raise CatalogError(
                f"index {index_name!r} does not exist on table {table_name!r}"
            ) from None
        self._version += 1
        return dropped

    def bump_data_epoch(self, table_name: str) -> int:
        """Record one committed mutation against ``table_name``.

        Returns the table's new data epoch.  Called by the database facade
        under the write side of its :class:`~repro.engine.epochs.EpochManager`,
        so the bump is always ordered after the mutation it records.
        """
        self._guard("catalog.bump_data_epoch")
        entry = self.table_entry(table_name)
        entry.data_epoch += 1
        return entry.data_epoch

    def data_epoch(self, table_name: str) -> int:
        """Committed-mutation count of a table (see :class:`TableEntry`)."""
        return self.table_entry(table_name).data_epoch

    def indexes_on(self, table_name: str) -> list[IndexEntry]:
        """All secondary indexes of a table."""
        return list(self.table_entry(table_name).indexes.values())

    def indexes_on_column(self, table_name: str, column: str) -> list[IndexEntry]:
        """Secondary indexes whose target column is ``column``."""
        return [entry for entry in self.indexes_on(table_name)
                if entry.column == column]

    def indexed_columns(self, table_name: str) -> list[str]:
        """Columns of a table carrying a complete (``BTREE``) index.

        These are the viable host candidates for a Hermit index.
        """
        return [entry.column for entry in self.indexes_on(table_name)
                if entry.method is IndexMethod.BTREE]

    def column_stats(self, table_name: str, column: str) -> ColumnStats:
        """Optimizer statistics for one column, fed to the planner's cost model.

        The catalog serves them from the running min/max/count the table
        maintains; a column that never observed a value yields stats whose
        :meth:`ColumnStats.selectivity` falls back to the default, which is
        what keeps the cost model's ranking equal to the pre-planner
        executor's fixed preference order on unknown data.
        """
        entry = self.table_entry(table_name)
        observed = entry.table.statistics.get(column)
        if observed is None:
            return ColumnStats(entry.table.num_rows, math.inf, -math.inf)
        cache_key = (table_name, column)
        cached = self._stats_cache.get(cache_key)
        row_count = entry.table.num_rows
        if (cached is not None and cached[0] == observed.count
                and cached[1] == entry.data_epoch
                and cached[2].row_count == row_count):
            return cached[2]
        stats = ColumnStats(row_count, observed.minimum, observed.maximum)
        self._stats_cache[cache_key] = (observed.count, entry.data_epoch, stats)
        return stats

    def tables(self) -> Iterator[TableEntry]:
        """Iterate all table entries."""
        return iter(self._tables.values())

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables
