"""Storage substrate: schemas, tables, tuple identifiers, pages, buffer pool.

This subpackage provides both substrates the paper evaluates on:

* the in-memory columnar :class:`~repro.storage.table.Table` used by the
  "DBMS-X" experiments, and
* the page-based :class:`~repro.storage.heap_file.HeapFile` behind a
  :class:`~repro.storage.buffer_pool.BufferPool` and a simulated
  :class:`~repro.storage.disk.DiskManager`, which stands in for PostgreSQL.
"""

from repro.storage.buffer_pool import BufferPool, BufferPoolStatistics
from repro.storage.disk import DiskManager, IOCostModel, IOStatistics
from repro.storage.heap_file import HeapFile
from repro.storage.identifiers import PointerScheme, RowLocation, TupleId
from repro.storage.memory import (
    BYTES_PER_GB,
    BYTES_PER_MB,
    MemoryReport,
)
from repro.storage.pages import DEFAULT_PAGE_SIZE, SlottedPage, slots_per_page
from repro.storage.schema import (
    Column,
    ColumnStatistics,
    DataType,
    TableSchema,
    numeric_schema,
)
from repro.storage.table import Table

__all__ = [
    "BufferPool",
    "BufferPoolStatistics",
    "BYTES_PER_GB",
    "BYTES_PER_MB",
    "Column",
    "ColumnStatistics",
    "DataType",
    "DEFAULT_PAGE_SIZE",
    "DiskManager",
    "HeapFile",
    "IOCostModel",
    "IOStatistics",
    "MemoryReport",
    "PointerScheme",
    "RowLocation",
    "SlottedPage",
    "Table",
    "TableSchema",
    "TupleId",
    "numeric_schema",
    "slots_per_page",
]
