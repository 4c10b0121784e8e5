"""Column types and schemas for the embedded relational store.

The Subscription Manager of the paper persists subscriptions, users and
event-code assignments in MySQL "for recovery" (Section 3).  ``repro.minisql``
plays that role.  This module defines the typed schema layer: column types,
value validation/coercion, and :class:`TableSchema`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..errors import SchemaError

INTEGER = "INTEGER"
TEXT = "TEXT"
BOOLEAN = "BOOLEAN"

_COLUMN_TYPES = (INTEGER, TEXT, BOOLEAN)


@dataclass(frozen=True)
class Column:
    """One column: name, type, nullability, primary-key flag."""

    name: str
    type: str
    nullable: bool = True
    primary_key: bool = False

    def __post_init__(self):
        if self.type not in _COLUMN_TYPES:
            raise SchemaError(
                f"unknown column type {self.type!r} for column {self.name!r}"
            )
        if self.primary_key and self.nullable:
            # Primary keys are implicitly NOT NULL, as in SQL.
            object.__setattr__(self, "nullable", False)

    def coerce(self, value: Any) -> Any:
        """Validate/coerce ``value`` for this column; raise SchemaError."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is NOT NULL")
            return None
        if self.type == INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(
                    f"column {self.name!r} expects INTEGER, got {value!r}"
                )
            return value
        if self.type == TEXT:
            if not isinstance(value, str):
                raise SchemaError(
                    f"column {self.name!r} expects TEXT, got {value!r}"
                )
            return value
        if not isinstance(value, bool):
            raise SchemaError(
                f"column {self.name!r} expects BOOLEAN, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class TableSchema:
    """Ordered set of columns with exactly one primary key."""

    name: str
    columns: Tuple[Column, ...]
    _by_name: Dict[str, Column] = field(
        default_factory=dict, compare=False, repr=False
    )
    primary_key: str = field(default="", init=False, compare=False)

    def __post_init__(self):
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        by_name: Dict[str, Column] = {}
        primary_keys = []
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            by_name[column.name] = column
            if column.primary_key:
                primary_keys.append(column.name)
        if len(primary_keys) != 1:
            raise SchemaError(
                f"table {self.name!r} must declare exactly one primary key"
            )
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "primary_key", primary_keys[0])

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def validate_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Return a full, coerced row dict (missing columns become NULL)."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        return {
            column.name: column.coerce(row.get(column.name))
            for column in self.columns
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form, used by the WAL."""
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "type": c.type,
                    "nullable": c.nullable,
                    "primary_key": c.primary_key,
                }
                for c in self.columns
            ],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "TableSchema":
        columns = tuple(
            Column(
                name=c["name"],
                type=c["type"],
                nullable=c["nullable"],
                primary_key=c["primary_key"],
            )
            for c in payload["columns"]
        )
        return TableSchema(name=payload["name"], columns=columns)


def schema(name: str, *columns: Column) -> TableSchema:
    """Convenience constructor: ``schema("users", Column("id", INTEGER, primary_key=True), ...)``."""
    return TableSchema(name=name, columns=tuple(columns))
