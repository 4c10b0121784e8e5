"""Write-ahead log: durability and recovery for the embedded store.

Format: one JSON object per line.  Record kinds:

* ``{"op": "create_table", "schema": {...}}``
* ``{"op": "insert"|"update"|"delete", "table": ..., "payload": {...}}``
  — the payload is ``{"rowid": ..., "row": {...}}`` (a delete's is just
  ``{"rowid": ...}``)
* ``{"op": "checkpoint"}`` — everything before the *last* checkpoint marker
  is superseded by the snapshot file written alongside it.

``append`` fsyncs each record; ``append_many`` writes a group of records
and fsyncs once (the runtime journal's per-batch commit).  A checkpoint
writes a full snapshot (``<path>.snapshot``) atomically (one-shot
encode, temp file + rename) and truncates the log.
Recovery loads the snapshot if present, then replays the remaining log
records; a record of any other kind is a :class:`MiniSQLError`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, Optional, TextIO

from ..errors import MiniSQLError


class WriteAheadLog:
    """Append-only JSON-lines log with explicit sync points."""

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[TextIO] = None

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        if self._handle is None:
            _end_on_line_boundary(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None:
            self._sync()
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
        self._handle.write(_line(record))
        self._sync()

    def append_many(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append ``records`` as one group commit: one write, one fsync.

        Every record is durable when this returns.  A crash mid-write
        tears at most the last line, which :meth:`records` skips and the
        next :meth:`open` cuts off before appending.
        """
        text = "".join(_line(record) for record in records)
        if not text:
            return
        if self._handle is None:
            self.open()
        assert self._handle is not None
        self._handle.write(text)
        self._sync()

    def _sync(self) -> None:
        assert self._handle is not None
        self._handle.flush()
        os.fsync(self._handle.fileno())

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


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _end_on_line_boundary(path: str) -> None:
    """Mend a final line a crash left without its newline, so the next
    append starts a line of its own instead of being glued onto it.

    A tail that parses is a whole record (:meth:`WriteAheadLog.records`
    yields it) and gets its newline; anything else is a torn write,
    which ``records`` skips, and is cut off.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        content = handle.read()
        start = content.rfind(b"\n") + 1
        try:
            json.loads(content[start:])
        except ValueError:
            handle.truncate(start)
        else:
            handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


def snapshot_path(wal_path: str) -> str:
    return wal_path + ".snapshot"


def write_json_atomic(path: str, payload: Any, **dump_options: Any) -> int:
    """Write ``payload`` as JSON to ``path`` atomically; returns the
    file's size in bytes.

    The JSON is encoded in one shot (``json.dumps``, which uses the C
    encoder where ``json.dump`` streams through the pure-Python one; the
    bytes are the same) and written with one call to a sibling temp file,
    which is fsynced and ``os.replace``d over ``path``.  A crash mid-write
    leaves either the old file or the new one — never a truncated hybrid,
    never a stray temp file.
    """
    text = json.dumps(payload, **dump_options)
    temp = path + ".tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
            size = os.fstat(handle.fileno()).st_size
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)
    return size


def write_snapshot(wal_path: str, state: Dict[str, Any]) -> int:
    """Atomically write the snapshot next to the WAL; returns its size
    in bytes."""
    return write_json_atomic(snapshot_path(wal_path), state)


def read_snapshot(wal_path: str) -> Optional[Dict[str, Any]]:
    target = snapshot_path(wal_path)
    if not os.path.exists(target):
        return None
    with open(target, "r", encoding="utf-8") as handle:
        return json.load(handle)
