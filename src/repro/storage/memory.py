"""Analytic memory accounting.

The paper's central claim is about *space*: a TRS-Tree is orders of magnitude
smaller than a complete B+-tree over the same column.  Measuring the resident
size of Python objects would tell us more about CPython's allocator than about
the data structures, so every structure in this library instead reports its
size through the size functions of this module, which price the same fixed
costs the paper's C++ implementation would pay: 8-byte keys, 8-byte pointers,
node headers, and hash-table bucket overheads.

All figures that report "Memory (MB/GB)" (Figures 5, 7, 18, 19, 20, 23, 28,
30) are produced from these estimates, which makes the Hermit/Baseline/CM
ratios directly comparable to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field


BYTES_PER_MB = 1024.0 * 1024.0
BYTES_PER_GB = 1024.0 * 1024.0 * 1024.0


# Cost constants of the size estimates.
KEY_BYTES = 8  # an index key (the paper uses 8-byte numerics)
POINTER_BYTES = 8  # a child pointer / tuple identifier
NODE_HEADER_BYTES = 24  # fixed per-node overhead (type tag, count, latch)
# Per-entry overhead of a hash table beyond the key and value themselves
# (bucket pointer + load-factor slack).
HASH_ENTRY_OVERHEAD_BYTES = 16
# One linear-regression model in a TRS-Tree leaf: slope, intercept, epsilon,
# range bounds (5 doubles).
LEAF_MODEL_BYTES = 40


def btree_bytes(num_entries: int, node_capacity: int = 16) -> int:
    """Estimate the size of a B+-tree holding ``num_entries`` entries.

    Leaf nodes store (key, pointer) pairs; internal nodes store keys plus
    child pointers.  A fill factor of 0.7 approximates the steady state of
    a bulk-loaded-then-maintained tree.

    Args:
        num_entries: Number of indexed entries.
        node_capacity: Entries per node before splitting.
    """
    if num_entries <= 0:
        return NODE_HEADER_BYTES
    fill = 0.7
    entry_bytes = KEY_BYTES + POINTER_BYTES
    leaf_nodes = max(1, int(num_entries / (node_capacity * fill)) + 1)
    leaf_bytes = leaf_nodes * NODE_HEADER_BYTES + num_entries * entry_bytes
    # Internal levels shrink geometrically by the node capacity.
    internal_bytes = 0
    level_nodes = leaf_nodes
    while level_nodes > 1:
        level_nodes = max(1, int(level_nodes / (node_capacity * fill)) + 1)
        internal_bytes += level_nodes * (
            NODE_HEADER_BYTES + node_capacity * entry_bytes
        )
        if level_nodes == 1:
            break
    return leaf_bytes + internal_bytes


def hash_table_bytes(num_entries: int) -> int:
    """Estimate the size of a hash table mapping keys to identifiers."""
    if num_entries <= 0:
        return NODE_HEADER_BYTES
    per_entry = KEY_BYTES + POINTER_BYTES + HASH_ENTRY_OVERHEAD_BYTES
    return NODE_HEADER_BYTES + num_entries * per_entry


def table_bytes(num_rows: int, row_byte_width: int) -> int:
    """Estimate the size of a base table."""
    return NODE_HEADER_BYTES + num_rows * row_byte_width


def trs_leaf_bytes(num_outliers: int) -> int:
    """Estimate the size of one TRS-Tree leaf node."""
    return NODE_HEADER_BYTES + LEAF_MODEL_BYTES + hash_table_bytes(num_outliers)


def trs_internal_bytes(fanout: int) -> int:
    """Estimate the size of one TRS-Tree internal node."""
    return NODE_HEADER_BYTES + fanout * POINTER_BYTES + 2 * KEY_BYTES


@dataclass
class MemoryReport:
    """A labelled collection of memory usages, in bytes.

    Used to build the "space breakdown" bars of Figures 5b, 7b and 20b: the
    base table, the pre-existing indexes, and the newly created indexes.
    """

    components: dict[str, int] = field(default_factory=dict)

    def add(self, label: str, num_bytes: int) -> None:
        """Accumulate ``num_bytes`` under ``label``."""
        self.components[label] = self.components.get(label, 0) + int(num_bytes)

    @property
    def total_bytes(self) -> int:
        """Total bytes across all components."""
        return sum(self.components.values())

    @property
    def total_mb(self) -> float:
        """Total size in MiB."""
        return self.total_bytes / BYTES_PER_MB

    def fraction(self, label: str) -> float:
        """Fraction of the total contributed by ``label`` (0 if total is 0)."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return self.components.get(label, 0) / total

    def merged(self, other: "MemoryReport") -> "MemoryReport":
        """Return a new report combining this one with ``other``."""
        merged = MemoryReport(dict(self.components))
        for label, num_bytes in other.components.items():
            merged.add(label, num_bytes)
        return merged

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{label}={num_bytes / BYTES_PER_MB:.2f}MB"
            for label, num_bytes in sorted(self.components.items())
        )
        return f"MemoryReport({parts}, total={self.total_mb:.2f}MB)"
