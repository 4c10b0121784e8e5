"""End-to-end crash recovery: durable runtime journal + exactly-once resume.

The paper's Subscription Manager keeps its state in MySQL "for recovery";
PR 3 reproduced that for subscription *definitions* (the MiniSQL WAL).
This package extends crash-consistency to the *runtime*: the Reporter's
buffered notifications, the crawler/refresh schedule cursor, circuit
breakers and the dead-letter queue — everything a crash mid-stream would
otherwise silently lose or double-deliver.

Three pieces:

* :class:`RuntimeJournal` — a JSON-lines WAL (reusing
  :mod:`repro.minisql.wal`) of delivered-notification ids, periodically
  compacted into a full runtime snapshot (checkpoint + truncate);
* :mod:`repro.recovery.state` — capture/restore of the live runtime,
  composed from each component's ``state_dict()`` /
  ``restore_state(dict)`` pair (reporter buffers, repository, crawler
  cursor, breakers, DLQ, RNGs);
* :class:`RecoveryManager` — the coordinator wired into a
  :class:`~repro.pipeline.system.SubscriptionSystem`: journals every
  delivery, checkpoints every ``checkpoint_every`` batches (at any
  batch boundary of ``run_stream``, mid-stream included), and dedups
  redelivery on resume so the journal is an exactly-once channel.

Entry points: ``SubscriptionSystem.enable_recovery()`` /
``SubscriptionSystem.recover_runtime()`` and the ``repro-monitor
resume`` CLI subcommand.  The deterministic crash harness lives in
:mod:`repro.faults.killpoints`.  See docs/ROBUSTNESS.md, "Crash
recovery & exactly-once delivery".
"""

from .journal import RuntimeJournal
from .manager import RecoveryManager
from .state import capture_runtime, restore_runtime

__all__ = [
    "RecoveryManager",
    "RuntimeJournal",
    "capture_runtime",
    "restore_runtime",
]
