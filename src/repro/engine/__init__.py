"""A small relational DBMS substrate with simulated, contention-aware timing.

This package stands in for the paper's local database systems (Oracle 8.0
and DB2 5.0): heap/clustered tables, B+-tree indexes, the classic access
methods and join algorithms, a rule-based local optimizer, and a costing
layer that converts physical work into simulated elapsed time under the
current environment contention.
"""

from .access import clustered_index_scan, nonclustered_index_scan, seq_scan
from .btree import BPlusTree
from .buffer import (
    BUFFER_HIT_STATES,
    BufferPool,
    BufferPoolStats,
    hit_state_label,
)
from .catalog import LocalCatalog
from .costing import ElapsedBreakdown, simulate_elapsed
from .database import KeptRuns, LocalDatabase, QueryResult, QueryRun
from .errors import (
    CatalogError,
    EngineError,
    ExecutionError,
    QueryError,
    SQLSyntaxError,
    SchemaError,
)
from .index import Index, IndexKind
from .joins import (
    hash_join,
    index_nested_loop_join,
    nested_loop_join,
    sort_merge_join,
)
from .metrics import AccessInfo, ExecutionMetrics
from .optimizer import JoinPlan, UnaryPlan, choose_join_plan, choose_unary_plan
from .pages import PageLayout
from .predicate import And, Comparison, KeyRange, Not, Or, Predicate, TRUE
from .profiles import DB2_LIKE, DBMSProfile, ORACLE_LIKE
from .query import JoinQuery, Query, SelectQuery
from .schema import Column, TableSchema
from .sql import parse_query
from .table import ResultTable, Table
from .types import DataType

__all__ = [
    "AccessInfo",
    "And",
    "BPlusTree",
    "BUFFER_HIT_STATES",
    "BufferPool",
    "BufferPoolStats",
    "CatalogError",
    "Column",
    "Comparison",
    "DB2_LIKE",
    "DBMSProfile",
    "DataType",
    "ElapsedBreakdown",
    "EngineError",
    "ExecutionError",
    "ExecutionMetrics",
    "Index",
    "IndexKind",
    "JoinPlan",
    "JoinQuery",
    "KeptRuns",
    "KeyRange",
    "LocalCatalog",
    "LocalDatabase",
    "Not",
    "ORACLE_LIKE",
    "Or",
    "PageLayout",
    "Predicate",
    "Query",
    "QueryError",
    "QueryResult",
    "QueryRun",
    "ResultTable",
    "SQLSyntaxError",
    "SchemaError",
    "SelectQuery",
    "Table",
    "TableSchema",
    "TRUE",
    "UnaryPlan",
    "choose_join_plan",
    "choose_unary_plan",
    "clustered_index_scan",
    "hash_join",
    "hit_state_label",
    "index_nested_loop_join",
    "nested_loop_join",
    "nonclustered_index_scan",
    "parse_query",
    "seq_scan",
    "simulate_elapsed",
    "sort_merge_join",
]
