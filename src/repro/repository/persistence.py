"""Warehouse persistence: save/load a repository to a directory.

The original Natix store is disk-based; our in-memory substitute gains
durability through an explicit snapshot: ``manifest.json`` holds
:meth:`Repository.state_dict` — every document's metadata and current
version with its XIDs, the doc-id counter and the DTD id table — written
atomically.  Reloading restores exactly that through
:meth:`Repository.restore_state`, which rebuilds the indexes.  Older
versions are *not* persisted, matching what the monitoring subsystem
needs after a restart: the latest version to diff future fetches
against.  A crash-recovery checkpoint carries the same state.
"""

from __future__ import annotations

import json
import os

from ..errors import RepositoryError
from ..minisql.wal import write_json_atomic
from .store import Repository

_MANIFEST = "manifest.json"


def save_repository(repository: Repository, directory: str) -> int:
    """Write the warehouse snapshot; returns the number of documents."""
    os.makedirs(directory, exist_ok=True)
    state = repository.state_dict()
    write_json_atomic(os.path.join(directory, _MANIFEST), state)
    return len(state["documents"])


def load_repository(repository: Repository, directory: str) -> int:
    """Populate an *empty* repository from a snapshot; returns the count."""
    manifest_path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise RepositoryError(f"no warehouse snapshot in {directory!r}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    repository.restore_state(state)
    return len(state["documents"])
