"""Index substrate: B+-trees (in-memory and paged), hash, sorted-column, composite."""

from repro.index.base import Index, IndexStatistics, KeyRange
from repro.index.bptree import BPlusTree
from repro.index.composite import CompositeIndex
from repro.index.hash_index import HashIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.index.sorted_column import SortedColumnIndex

__all__ = [
    "BPlusTree",
    "CompositeIndex",
    "HashIndex",
    "Index",
    "IndexStatistics",
    "KeyRange",
    "PagedBPlusTree",
    "SortedColumnIndex",
]
