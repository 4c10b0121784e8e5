"""The runtime journal: delivered-notification WAL + checkpoint snapshots.

Layout on disk (same machinery as the MiniSQL store,
:mod:`repro.minisql.wal`):

* ``<path>`` — JSON-lines log, one record per journaled delivery::

      {"op": "deliver", "id": "<sha1-digest>:<occurrence>", "sub": <id>}

  (``sub`` is the subscription the delivery went to, ``null`` when the
  caller gave none; records written before it was added lack it);

* ``<path>.snapshot`` — the last checkpoint, written atomically
  (temp file + ``os.replace``)::

      {"state": {...runtime state...},      # see repro.recovery.state
       "seen": ["<id>", ...],               # ids delivered before the ckpt
       "occurrences": {"<digest>": n, ...}, # per-digest delivery counts
       "occurrences_at": t,                 # the instant they belong to
       "checkpoints": k}

Group commit: :meth:`RuntimeJournal.append_delivery` only queues an id
in memory; :meth:`RuntimeJournal.commit` writes every queued id with one
write and one fsync.  The system commits when a ``feed`` / ``feed_batch``
/ ``advance_time`` call returns, so a batch costs one fsync however many
notifications it delivered.  Ids queued when a crash strikes are simply
lost: they are content-addressed, so the resumed run regenerates them
and journals them then.  They are deliberately not held in the log
file's write buffer, which a crashed system's garbage-collected file
object would flush into a journal a resumed system is already writing.

A checkpoint writes the snapshot *first*, then truncates the log — a
crash between the two (the ``mid-checkpoint`` kill point) leaves stale
pre-snapshot records in the log, which :meth:`RuntimeJournal.load`
absorbs idempotently: replaying a delivery id already in the snapshot's
``seen`` set is a no-op.  The snapshot's ``seen`` set covers the queued
ids too, so a checkpoint drops the queue instead of committing it.

Exactly-once accounting: ``load`` returns ``replayed`` — the number of
log ids *not* covered by the snapshot, i.e. deliveries committed after
the last checkpoint.  A resumed run regenerates exactly that window (the
runtime rewinds to the checkpoint), recomputes the same ids, and dedups
them against ``seen`` — so ``recovery.deduped == recovery.replayed``
once the resumed run has caught up, and the journal never holds a
duplicate id.  The one part of the window that is *not* regenerated is
the deliveries of a subscription removed after the checkpoint: ``load``
counts those in :attr:`RuntimeJournal.loaded_discarded` instead (they
stay in ``seen``).

What a snapshot costs: each stored document's entry is the text its
current version was parsed from plus its XIDs, cached until the document
stores a new version, so only the metadata and the documents changed
since the last checkpoint are encoded again; the whole snapshot is then
encoded in one ``json.dumps`` call and written with one write.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import RecoveryError
from ..faults.killpoints import KILL_POINT_MID_CHECKPOINT, maybe_kill
from ..minisql.wal import (
    WriteAheadLog,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)

_OP_DELIVER = "deliver"


class RuntimeJournal:
    """Durable record of deliveries + periodic runtime checkpoints."""

    def __init__(self, path: str):
        self.path = path
        self._wal = WriteAheadLog(path)
        #: Delivered (id, subscription id) pairs not yet committed.
        self._pending: List[Tuple[str, Optional[int]]] = []
        #: Cumulative checkpoint count read back by :meth:`load` (so a
        #: resumed run keeps numbering checkpoints where it left off).
        self.loaded_checkpoints = 0
        #: The instant the loaded ``occurrences`` belong to.
        self.loaded_occurrences_at: Optional[float] = None
        #: Log ids beyond the snapshot that :meth:`load` left out of
        #: ``replayed`` because their subscription was removed.
        self.loaded_discarded = 0

    # -- writing -----------------------------------------------------------

    def append_delivery(
        self, delivery_id: str, subscription_id: Optional[int] = None
    ) -> None:
        """Queue one delivered-notification id (and the subscription it
        went to) for the next :meth:`commit`."""
        self._pending.append((delivery_id, subscription_id))

    def commit(self) -> None:
        """Make every queued id durable: one write and one fsync."""
        if self._pending:
            self._wal.append_many(
                {"op": _OP_DELIVER, "id": delivery_id, "sub": subscription_id}
                for delivery_id, subscription_id in self._pending
            )
            self._pending = []

    def checkpoint(
        self,
        state: Dict[str, Any],
        seen: Set[str],
        occurrences: Dict[str, int],
        checkpoints: int,
        occurrences_at: Optional[float] = None,
    ) -> int:
        """Write a full runtime snapshot, then truncate the log; returns
        the snapshot's size in bytes.

        ``occurrences_at`` is the instant the ``occurrences`` counters
        belong to (``None`` before any delivery was counted).
        """
        size = write_snapshot(
            self.path,
            {
                "state": state,
                "seen": sorted(seen),
                "occurrences": occurrences,
                "occurrences_at": occurrences_at,
                "checkpoints": checkpoints,
            },
        )
        self._pending = []
        maybe_kill(KILL_POINT_MID_CHECKPOINT)
        self._wal.truncate()
        return size

    def close(self) -> None:
        self.commit()
        self._wal.close()

    # -- reading -----------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(snapshot_path(self.path))

    def load(
        self, removed: Optional[Callable[[int], bool]] = None
    ) -> Tuple[Optional[Dict[str, Any]], Set[str], Dict[str, int], int]:
        """Read the snapshot and replay the log.

        Returns ``(state, seen, occurrences, replayed)`` where ``state``
        is the checkpointed runtime (``None`` if no checkpoint was ever
        written), ``seen`` is the union of the snapshot's delivered ids
        and the log's, ``occurrences`` comes from the snapshot *only*
        (log replay must not advance it — the resumed run regenerates
        the post-checkpoint deliveries and must recompute the same
        occurrence numbers), and ``replayed`` counts the log ids absent
        from the snapshot.  A log id whose subscription ``removed``
        reports as removed is added to ``seen`` but counted in
        :attr:`loaded_discarded` instead of ``replayed``: the resumed run
        cannot regenerate it.  The instant the occurrences belong to is
        left in :attr:`loaded_occurrences_at`; a snapshot that does not
        record it is rejected.
        """
        snapshot = read_snapshot(self.path)
        state: Optional[Dict[str, Any]] = None
        seen: Set[str] = set()
        occurrences: Dict[str, int] = {}
        if snapshot is not None:
            state = snapshot.get("state")
            self.loaded_checkpoints = int(snapshot.get("checkpoints", 0))
            if "occurrences_at" not in snapshot:
                raise RecoveryError(
                    f"snapshot of {self.path} does not record the instant"
                    " of its occurrence counters (written by an older"
                    " version; start a fresh journal)"
                )
            self.loaded_occurrences_at = snapshot["occurrences_at"]
            seen = set(snapshot.get("seen", []))
            occurrences = {
                digest: int(count)
                for digest, count in snapshot.get("occurrences", {}).items()
            }
        replayed = 0
        self.loaded_discarded = 0
        for record in self._wal.records():
            if record.get("op") != _OP_DELIVER:
                raise RecoveryError(
                    f"unknown journal record {record!r} in {self.path}"
                )
            delivery_id = record["id"]
            if delivery_id in seen:
                continue
            seen.add(delivery_id)
            subscription_id = record.get("sub")
            if (
                removed is not None
                and subscription_id is not None
                and removed(subscription_id)
            ):
                self.loaded_discarded += 1
            else:
                replayed += 1
        return state, seen, occurrences, replayed
