"""Capture and restore of the live pipeline runtime.

``capture_runtime`` composes one JSON-serializable dict from a
:class:`~repro.pipeline.system.SubscriptionSystem` (and optionally the
crawler and change-rate estimator feeding it); ``restore_runtime``
replays that dict into a *freshly built* system whose subscriptions were
already recovered (``Database.recover`` + ``SubscriptionManager.recover()``
— definitions come from the MiniSQL WAL, runtime state from here).

Each component defines its own section through a ``state_dict()`` /
``restore_state(dict)`` pair next to the state it owns:

* ``Reporter`` — per-subscription buffers (pending notification
  texts, suppression/rate-limit state, ``when``-condition counters);
* ``Repository`` — current document versions with their XIDs (so a
  resumed re-feed diffs as ``DOC_UPDATED`` against the same XIDs rather
  than registering every page as ``DOC_NEW``), the doc-id counter and
  the DTD id table.  A version is written as the text it was parsed
  from, and each document caches its encoded entry until it stores a
  new version, so a checkpoint re-encodes only the documents changed
  since the last one (and every document's metadata);
* ``SimulatedCrawler`` — the crawl cursor and every RNG involved in
  content evolution, delegating to its ``ChangeModel``,
  ``FaultInjector`` and ``CircuitBreaker``\\ s;
* ``DeadLetterQueue`` and ``ChangeRateEstimator``.

This module adds only the version check, the simulated clock and the
system's two document counters.

What is *not* checkpointed (documented scope limits): the trigger
engine's answer store, the email sink's backlog, the report archive and
the metric registries.  Sinks are at-least-once across a crash — the
journal is the exactly-once channel.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import RecoveryError
from ..faults.dlq import DeadLetterQueue

#: Bumped on any incompatible change to the state layout.
STATE_VERSION = 2


def capture_runtime(
    system: Any,
    crawler: Optional[Any] = None,
    estimator: Optional[Any] = None,
) -> Dict[str, Any]:
    """One JSON-serializable snapshot of the running pipeline."""
    state: Dict[str, Any] = {
        "version": STATE_VERSION,
        "clock": system.clock.now(),
        "documents_fed": system.documents_fed,
        "documents_rejected": system.documents_rejected,
        "reporter": system.reporter.state_dict(),
        "repository": system.repository.state_dict(),
    }
    if system.dead_letters is not None:
        state["dead_letters"] = system.dead_letters.state_dict()
    if crawler is not None:
        state["crawler"] = crawler.state_dict()
    if estimator is not None:
        state["estimator"] = estimator.state_dict()
    return state


def restore_runtime(
    system: Any,
    state: Dict[str, Any],
    crawler: Optional[Any] = None,
    estimator: Optional[Any] = None,
) -> None:
    """Replay a :func:`capture_runtime` snapshot into a fresh system.

    The system's subscriptions must already be recovered (so the
    Reporter's buffers exist); the repository must be empty.  ``crawler``
    / ``estimator``, when given, are restored in place from the matching
    snapshot sections.
    """
    version = state.get("version")
    if version != STATE_VERSION:
        raise RecoveryError(
            f"runtime snapshot version {version!r} is not supported"
            f" (expected {STATE_VERSION})"
        )
    try:
        system.clock.set_time(state["clock"])
    except ValueError as exc:
        raise RecoveryError(
            f"cannot rewind the system clock to the checkpoint: {exc}"
        ) from None
    system.documents_fed = int(state["documents_fed"])
    system.documents_rejected = int(state["documents_rejected"])
    if len(system.repository):
        raise RecoveryError(
            "restore_runtime needs an empty repository (build a fresh"
            " system before recovering)"
        )
    system.repository.restore_state(state["repository"])
    system.reporter.restore_state(
        state["reporter"], removed=system.manager.was_removed
    )
    if "dead_letters" in state:
        if system.dead_letters is None:
            system.dead_letters = DeadLetterQueue(
                capacity=int(state["dead_letters"]["capacity"]),
                metrics=system.metrics,
            )
        system.dead_letters.restore_state(state["dead_letters"])
    if crawler is not None:
        if "crawler" not in state:
            raise RecoveryError(
                "the checkpoint holds no crawler state (it was written"
                " without a crawler attached)"
            )
        crawler.restore_state(state["crawler"])
    if estimator is not None and "estimator" in state:
        estimator.restore_state(state["estimator"])
