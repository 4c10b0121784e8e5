"""The RecoveryManager: exactly-once delivery accounting + checkpoints.

One manager attaches to one :class:`~repro.pipeline.system.SubscriptionSystem`
(via ``enable_recovery`` / ``recover_runtime``) and does three jobs:

* **journal every delivery** — it taps ``Reporter.delivery_hook``, so
  each outgoing notification is assigned a deterministic delivery id and
  queued in the :class:`~repro.recovery.journal.RuntimeJournal` *before*
  the in-memory report buffers absorb it; the system calls
  :meth:`RecoveryManager.commit` when a ``feed`` / ``feed_batch`` /
  ``advance_time`` call returns, which makes the queued ids durable with
  one fsync;
* **checkpoint periodically** — ``SubscriptionSystem.run_stream``
  calls :meth:`RecoveryManager.note_batch` after each batch returns from
  ``feed_batch``, and every ``checkpoint_every`` batches the manager
  captures the full runtime
  (:func:`repro.recovery.state.capture_runtime`) and compacts the
  journal.  A batch boundary is a sound resume point even in the middle
  of a stream: the stream is pulled on the same thread, so the crawler
  has yielded exactly the fetches already fed;
* **dedup on resume** — after a crash, ``recover_runtime`` reloads the
  journal; the resumed run rewinds to the checkpoint and regenerates the
  post-checkpoint window, and the manager recognises the recomputed
  delivery ids in its ``seen`` set, counting them under
  ``recovery.deduped`` instead of journaling them twice.  Journaled
  deliveries of a subscription removed after the checkpoint cannot be
  regenerated; they count under ``recovery.discarded``, not
  ``recovery.replayed``, so ``deduped == replayed`` still holds.

Delivery ids are content-addressed: the SHA-1 of
``(subscription_id, query_name, notification texts, clock.now())``
plus a per-digest occurrence counter (``<digest>:<n>``), so identical
payloads delivered repeatedly stay distinct while a *replayed* delivery
of the same content at the same simulated instant maps onto the same id.
Occurrence counters are restored from the snapshot only — never advanced
by log replay — which is exactly what lets the regenerated window
recompute identical ids.  Since a digest hashes the instant, a counter
can only be hit again at the same instant: the manager keeps the
counters of the current instant alone and drops them when the clock
moves.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Set

from ..errors import RecoveryError
from ..faults.killpoints import (
    KILL_POINT_POST_DELIVER,
    KILL_POINT_PRE_DELIVER,
    maybe_kill,
)
from ..observability.names import (
    COUNTER_RECOVERY_CHECKPOINTS,
    COUNTER_RECOVERY_DEDUPED,
    COUNTER_RECOVERY_DISCARDED,
    COUNTER_RECOVERY_REPLAYED,
    GAUGE_RECOVERY_SNAPSHOT_BYTES,
)
from .journal import RuntimeJournal
from .state import capture_runtime, restore_runtime


class RecoveryManager:
    """Coordinates journal, checkpoints and exactly-once dedup for one
    system (see the module docstring)."""

    def __init__(
        self,
        system: Any,
        path: str,
        crawler: Optional[Any] = None,
        estimator: Optional[Any] = None,
        checkpoint_every: int = 64,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if checkpoint_every < 1:
            raise RecoveryError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.system = system
        #: Free-form JSON carried inside every checkpoint (the CLI stores
        #: its scenario configuration here so ``resume`` is self-contained).
        self.metadata = metadata
        self.crawler = crawler
        self.estimator = estimator
        self.checkpoint_every = checkpoint_every
        self.journal = RuntimeJournal(path)
        self.seen: Set[str] = set()
        #: Per-digest delivery counts at the instant ``occurrences_at``.
        self.occurrences: Dict[str, int] = {}
        self.occurrences_at: Optional[float] = None
        self.checkpoints = 0
        self.deduped = 0
        self.replayed = 0
        #: Log ids past the checkpoint whose subscription was removed
        #: before the crash: in ``seen``, but never regenerated.
        self.discarded = 0
        self._batches_since_checkpoint = 0

    # -- wiring ------------------------------------------------------------

    def attach(self) -> None:
        """Hook into the system: tap deliveries, claim ``system.recovery``
        and intern the recovery counters (lazily — they only enter the
        metric registry once recovery is enabled, so zero-recovery
        snapshots are unchanged)."""
        if self.system.recovery is not None and self.system.recovery is not self:
            raise RecoveryError(
                "the system already has a RecoveryManager attached"
            )
        self.system.recovery = self
        self.system.reporter.delivery_hook = self._on_deliver
        self._checkpoint_counter = self.system.metrics.counter(
            COUNTER_RECOVERY_CHECKPOINTS
        )
        self._deduped_counter = self.system.metrics.counter(
            COUNTER_RECOVERY_DEDUPED
        )
        self._replayed_counter = self.system.metrics.counter(
            COUNTER_RECOVERY_REPLAYED
        )
        self._discarded_counter = self.system.metrics.counter(
            COUNTER_RECOVERY_DISCARDED
        )
        self._snapshot_bytes = self.system.metrics.gauge(
            GAUGE_RECOVERY_SNAPSHOT_BYTES
        )

    # -- delivery journal --------------------------------------------------

    def _delivery_id(
        self,
        subscription_id: int,
        query_name: Optional[str],
        texts: List[str],
    ) -> str:
        now = self.system.clock.now()
        if now != self.occurrences_at:
            self.occurrences = {}
            self.occurrences_at = now
        payload = json.dumps(
            [subscription_id, query_name, texts, now],
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()
        occurrence = self.occurrences.get(digest, 0) + 1
        self.occurrences[digest] = occurrence
        return f"{digest}:{occurrence}"

    def _on_deliver(
        self,
        subscription_id: int,
        query_name: Optional[str],
        texts: List[str],
    ) -> None:
        maybe_kill(KILL_POINT_PRE_DELIVER)
        delivery_id = self._delivery_id(subscription_id, query_name, texts)
        if delivery_id in self.seen:
            # A resumed run regenerating the post-checkpoint window: the
            # journal already holds this delivery, so only the in-memory
            # redelivery proceeds.
            self.deduped += 1
            self._deduped_counter.inc()
        else:
            self.journal.append_delivery(delivery_id, subscription_id)
            self.seen.add(delivery_id)
        maybe_kill(KILL_POINT_POST_DELIVER)

    def commit(self) -> None:
        """Make the deliveries journaled since the last commit durable."""
        self.journal.commit()

    # -- checkpoint cadence ------------------------------------------------

    def note_batch(self) -> None:
        """Called by ``run_stream`` after every batch it fed; takes a
        checkpoint each ``checkpoint_every`` batches."""
        self._batches_since_checkpoint += 1
        if self._batches_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Capture the runtime and compact the journal."""
        state = capture_runtime(
            self.system, crawler=self.crawler, estimator=self.estimator
        )
        if self.metadata is not None:
            state["metadata"] = self.metadata
        size = self.journal.checkpoint(
            state,
            self.seen,
            self.occurrences,
            self.checkpoints + 1,
            self.occurrences_at,
        )
        self._snapshot_bytes.set(size)
        self.checkpoints += 1
        self._checkpoint_counter.inc()
        self._batches_since_checkpoint = 0

    def close(self) -> None:
        """Commit the queued deliveries and close the journal."""
        self.journal.close()

    # -- resume ------------------------------------------------------------

    def recover(self) -> None:
        """Load the journal and rebuild the runtime into ``self.system``
        (which must be freshly built with its subscriptions already
        recovered).  Used by ``SubscriptionSystem.recover_runtime``."""
        if not self.journal.exists():
            raise RecoveryError(
                f"no checkpoint found at {self.journal.path}.snapshot —"
                " nothing to recover"
            )
        state, seen, occurrences, replayed = self.journal.load(
            removed=self.system.manager.was_removed
        )
        if state is None:
            raise RecoveryError(
                f"checkpoint at {self.journal.path} holds no runtime state"
            )
        restore_runtime(
            self.system,
            state,
            crawler=self.crawler,
            estimator=self.estimator,
        )
        if self.metadata is None:
            self.metadata = state.get("metadata")
        self.seen = seen
        self.occurrences = occurrences
        self.occurrences_at = self.journal.loaded_occurrences_at
        self.replayed = replayed
        self.discarded = self.journal.loaded_discarded
        self.checkpoints = self.journal.loaded_checkpoints
        self.attach()
        if replayed:
            self._replayed_counter.inc(replayed)
        if self.discarded:
            self._discarded_counter.inc(self.discarded)
