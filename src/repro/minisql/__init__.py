"""Embedded relational store — the reproduction's MySQL substitute.

The paper's Subscription Manager "uses the same MySQL database for
recovery" (Section 3).  This package provides the surface that role needs:
typed tables keyed by their primary key (insert, point lookup, update and
delete by key, full scan), and WAL-based durability with snapshot
checkpoints.
"""

from .database import Database
from .table import Table
from .types import BOOLEAN, INTEGER, TEXT, Column, TableSchema, schema
from .wal import WriteAheadLog

__all__ = [
    "Database",
    "Table",
    "BOOLEAN",
    "INTEGER",
    "TEXT",
    "Column",
    "TableSchema",
    "schema",
    "WriteAheadLog",
]
