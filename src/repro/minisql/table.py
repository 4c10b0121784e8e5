"""In-memory table keyed by its primary key.

Mutations emit *physical* per-row effects (rowid + full row state) to an
observer callback; the database writes these to the write-ahead log, and
recovery replays them verbatim.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

from ..errors import MiniSQLError
from .types import TableSchema

#: observer(op, table_name, payload); op in {"insert", "update", "delete"}.
Observer = Callable[[str, str, Dict[str, Any]], None]


class Table:
    """Rows are stored as dicts keyed by an internal rowid."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[int, Dict[str, Any]] = {}
        self._next_rowid = 1
        self._primary_index: Dict[Any, int] = {}
        self.observer: Optional[Observer] = None

    # -- helpers -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Yield copies of all rows (callers cannot corrupt the index)."""
        for row in self._rows.values():
            yield dict(row)

    def _notify(self, op: str, payload: Dict[str, Any]) -> None:
        if self.observer is not None:
            self.observer(op, self.name, payload)

    # -- physical operations (shared by API calls and WAL replay) -----------

    def apply_physical(self, op: str, payload: Dict[str, Any]) -> None:
        """Replay one logged effect. Used by recovery only."""
        if op == "insert":
            self._store(payload["rowid"], payload["row"])
        elif op == "update":
            self._replace(payload["rowid"], payload["row"])
        elif op == "delete":
            self._remove(payload["rowid"])
        else:
            raise MiniSQLError(f"unknown WAL operation {op!r}")

    def _store(self, rowid: int, stored: Dict[str, Any]) -> None:
        self._rows[rowid] = stored
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1
        self._primary_index[stored[self.schema.primary_key]] = rowid

    def _replace(self, rowid: int, updated: Dict[str, Any]) -> None:
        row = self._rows[rowid]
        pk = self.schema.primary_key
        if updated[pk] != row[pk]:
            del self._primary_index[row[pk]]
            self._primary_index[updated[pk]] = rowid
        self._rows[rowid] = updated

    def _remove(self, rowid: int) -> None:
        row = self._rows.pop(rowid)
        self._primary_index.pop(row[self.schema.primary_key], None)

    # -- mutations ---------------------------------------------------------

    def insert(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Insert a row; returns the stored (coerced, completed) row."""
        stored = self.schema.validate_row(row)
        key = stored[self.schema.primary_key]
        if key in self._primary_index:
            raise MiniSQLError(
                f"duplicate primary key {key!r} in table {self.name!r}"
            )
        rowid = self._next_rowid
        self._store(rowid, stored)
        self._notify("insert", {"rowid": rowid, "row": dict(stored)})
        return dict(stored)

    def update(self, key: Any, changes: Dict[str, Any]) -> bool:
        """Apply ``changes`` to the row keyed ``key``; returns whether
        that row existed."""
        for column in changes:
            self.schema.column(column)
        rowid = self._primary_index.get(key)
        if rowid is None:
            return False
        updated = self.schema.validate_row({**self._rows[rowid], **changes})
        new_key = updated[self.schema.primary_key]
        if new_key != key and new_key in self._primary_index:
            raise MiniSQLError(
                f"update would duplicate primary key {new_key!r}"
            )
        self._replace(rowid, updated)
        self._notify("update", {"rowid": rowid, "row": dict(updated)})
        return True

    def delete(self, key: Any) -> bool:
        """Delete the row keyed ``key``; returns whether it existed."""
        rowid = self._primary_index.get(key)
        if rowid is None:
            return False
        self._remove(rowid)
        self._notify("delete", {"rowid": rowid})
        return True

    # -- queries -----------------------------------------------------------

    def get(self, key: Any) -> Optional[Dict[str, Any]]:
        """Primary-key point lookup; None when absent."""
        rowid = self._primary_index.get(key)
        return dict(self._rows[rowid]) if rowid is not None else None
