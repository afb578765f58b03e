"""The in-memory RDBMS substrate: catalog, query model, planner, executor."""

from repro.engine.access_path import AccessPath, FullScanPath, MechanismPath
from repro.engine.catalog import (
    Catalog,
    ColumnStats,
    IndexEntry,
    IndexMethod,
    TableEntry,
)
from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.planner import Plan, Planner
from repro.engine.query import (
    ConjunctiveQuery,
    QueryRequest,
    QueryResult,
    RangePredicate,
    conjunction,
    point_predicate,
)

__all__ = [
    "AccessPath",
    "Catalog",
    "ColumnStats",
    "ConjunctiveQuery",
    "Database",
    "FullScanPath",
    "IndexEntry",
    "IndexMethod",
    "MechanismPath",
    "Plan",
    "Planner",
    "QueryRequest",
    "QueryResult",
    "RangePredicate",
    "TableEntry",
    "conjunction",
    "execute_plan",
    "point_predicate",
]
