"""Index substrate: the ordered index and the paged B+-tree."""

from repro.index.base import Index, KeyRange
from repro.index.paged_bptree import PagedBPlusTree
from repro.index.ordered import OrderedIndex

__all__ = [
    "Index",
    "KeyRange",
    "OrderedIndex",
    "PagedBPlusTree",
]
