"""Database: named tables + optional WAL-backed durability.

Usage::

    db = Database(path="/tmp/subscriptions.wal")     # durable
    users = db.create_table(schema("users",
        Column("id", INTEGER, primary_key=True),
        Column("email", TEXT, nullable=False)))
    users.insert({"id": 1, "email": "nguyen@inria.fr"})
    db.checkpoint()

    recovered = Database.recover("/tmp/subscriptions.wal")

An in-memory database (``path=None``) skips logging entirely; the
Subscription Manager uses that mode in benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import MiniSQLError
from .table import Table
from .types import TableSchema
from .wal import WriteAheadLog, read_snapshot, write_snapshot


class Database:
    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._tables: Dict[str, Table] = {}
        self._wal: Optional[WriteAheadLog] = None
        if path is not None:
            self._wal = WriteAheadLog(path)
            self._wal.open()

    # -- schema ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise MiniSQLError(f"table {schema.name!r} already exists")
        table = Table(schema)
        table.observer = self._on_mutation
        self._tables[schema.name] = table
        if self._wal is not None:
            self._wal.append({"op": "create_table", "schema": schema.to_dict()})
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise MiniSQLError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    # -- durability ---------------------------------------------------------

    def _on_mutation(self, op: str, table_name: str, payload: Dict[str, Any]) -> None:
        if self._wal is not None:
            self._wal.append({"op": op, "table": table_name, "payload": payload})

    def checkpoint(self) -> None:
        """Write a full snapshot and truncate the WAL."""
        if self._wal is None:
            return
        state = {
            "tables": [
                {
                    "schema": table.schema.to_dict(),
                    "rows": [
                        {"rowid": rowid, "row": row}
                        for rowid, row in table._rows.items()
                    ],
                }
                for table in self._tables.values()
            ]
        }
        write_snapshot(self.path, state)  # type: ignore[arg-type]
        self._wal.truncate()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery ------------------------------------------------------------

    @staticmethod
    def recover(path: str) -> "Database":
        """Rebuild a database from its snapshot + WAL."""
        db = Database(path=None)
        snapshot = read_snapshot(path)
        if snapshot is not None:
            for entry in snapshot["tables"]:
                schema = TableSchema.from_dict(entry["schema"])
                table = db._tables[schema.name] = Table(schema)
                for stored in entry["rows"]:
                    table.apply_physical("insert", stored)
        for record in WriteAheadLog(path).records():
            op = record["op"]
            if op == "create_table":
                schema = TableSchema.from_dict(record["schema"])
                if schema.name not in db._tables:
                    db._tables[schema.name] = Table(schema)
            elif op in ("insert", "update", "delete"):
                db.table(record["table"]).apply_physical(op, record["payload"])
            elif op != "checkpoint":
                raise MiniSQLError(f"unknown WAL operation {op!r}")
        # Re-attach durability to the same WAL file.
        db.path = path
        db._wal = WriteAheadLog(path)
        db._wal.open()
        for table in db._tables.values():
            table.observer = db._on_mutation
        return db
