"""Write-ahead log: durability and recovery for the embedded store.

Format: one JSON object per line.  Record kinds:

* ``{"op": "create_table", "schema": {...}}``
* ``{"op": "create_index", "table": ..., "column": ...}``
* ``{"op": "insert"|"update"|"delete", "table": ..., "payload": {...}}``
* ``{"op": "checkpoint"}`` — everything before the *last* checkpoint marker
  is superseded by the snapshot file written alongside it.

A checkpoint writes a full snapshot (``<path>.snapshot``) atomically
(temp file + rename) and truncates the log.  Recovery loads the snapshot if
present, then replays the remaining log records.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional, TextIO

from ..errors import MiniSQLError


class WriteAheadLog:
    """Append-only JSON-lines log with explicit sync points."""

    def __init__(self, path: str, sync_every: int = 1):
        self.path = path
        self.sync_every = max(1, sync_every)
        self._pending = 0
        self._handle: Optional[TextIO] = None

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self.open()
        assert self._handle is not None
        self._handle.write(json.dumps(record, separators=(",", ":")))
        self._handle.write("\n")
        self._pending += 1
        if self._pending >= self.sync_every:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._pending = 0

    def truncate(self) -> None:
        """Drop all log content (called right after a snapshot)."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass
        self.open()

    # -- reading -----------------------------------------------------------

    def records(self) -> Iterator[Dict[str, Any]]:
        """Yield log records; a torn final line (crash mid-write) is skipped."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    # Torn tail write: the record was never acknowledged.
                    return
                raise MiniSQLError(
                    f"corrupt WAL record at line {index + 1} of {self.path}"
                )


def snapshot_path(wal_path: str) -> str:
    return wal_path + ".snapshot"


def write_json_atomic(path: str, payload: Any, **dump_options: Any) -> None:
    """Write ``payload`` as JSON to ``path`` atomically.

    The JSON goes to a sibling temp file, is fsynced and ``os.replace``d
    over ``path``, so a crash mid-write leaves either the old file or the
    new one — never a truncated hybrid, never a stray temp file.
    """
    temp = path + ".tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, **dump_options)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def write_snapshot(wal_path: str, state: Dict[str, Any]) -> None:
    """Atomically write the snapshot next to the WAL."""
    write_json_atomic(snapshot_path(wal_path), state)


def read_snapshot(wal_path: str) -> Optional[Dict[str, Any]]:
    target = snapshot_path(wal_path)
    if not os.path.exists(target):
        return None
    with open(target, "r", encoding="utf-8") as handle:
        return json.load(handle)
