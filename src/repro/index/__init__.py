"""Index substrate: the ordered index, the paged B+-tree, composite."""

from repro.index.base import Index, KeyRange
from repro.index.composite import CompositeIndex
from repro.index.paged_bptree import PagedBPlusTree
from repro.index.ordered import OrderedIndex

__all__ = [
    "CompositeIndex",
    "Index",
    "KeyRange",
    "OrderedIndex",
    "PagedBPlusTree",
]
