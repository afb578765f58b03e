"""repro — a reproduction of Hermit (SIGMOD 2019).

Hermit is a succinct secondary indexing mechanism that exploits column
correlations: instead of building a complete B+-tree on a target column, it
builds a tiny Tiered Regression Search Tree (TRS-Tree) that maps target-column
predicates onto an existing *host* index of a correlated column, then removes
false positives by validating against the base table.

The package layers, bottom-up:

* :mod:`repro.storage` — columnar tables, tuple identifiers, pages/buffer pool.
* :mod:`repro.index` — the ordered index (every complete index) and the paged
  B+-tree.
* :mod:`repro.core` — the TRS-Tree and the Hermit mechanism (the paper's
  contribution).
* :mod:`repro.baselines` — the conventional secondary index and Correlation Maps.
* :mod:`repro.correlation` — correlation functions, discovery, host advisor.
* :mod:`repro.engine` — the database facade tying everything together.
* :mod:`repro.workloads` — the Synthetic, Stock and Sensor applications.
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``.
"""

from repro.core import (
    DEFAULT_CONFIG,
    HermitIndex,
    LinearModel,
    LookupBreakdown,
    TRSTree,
    TRSTreeConfig,
)
from repro.engine import (
    ConjunctiveQuery,
    Database,
    IndexMethod,
    QueryRequest,
    QueryResult,
    RangePredicate,
    conjunction,
)
from repro.index import KeyRange, OrderedIndex
from repro.storage import PointerScheme, Table, TableSchema, numeric_schema

__version__ = "0.1.0"

__all__ = [
    "ConjunctiveQuery",
    "DEFAULT_CONFIG",
    "Database",
    "HermitIndex",
    "IndexMethod",
    "KeyRange",
    "LinearModel",
    "LookupBreakdown",
    "OrderedIndex",
    "PointerScheme",
    "QueryRequest",
    "QueryResult",
    "RangePredicate",
    "conjunction",
    "TRSTree",
    "TRSTreeConfig",
    "Table",
    "TableSchema",
    "numeric_schema",
    "__version__",
]
