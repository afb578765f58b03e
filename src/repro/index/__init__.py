"""Index substrate: the ordered index, the paged B+-tree, hash, composite."""

from repro.index.base import Index, IndexStatistics, KeyRange
from repro.index.composite import CompositeIndex
from repro.index.hash_index import HashIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.index.ordered import OrderedIndex

__all__ = [
    "CompositeIndex",
    "HashIndex",
    "Index",
    "IndexStatistics",
    "KeyRange",
    "OrderedIndex",
    "PagedBPlusTree",
]
