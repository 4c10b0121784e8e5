"""One fetched page's path through the system.

Xyleme sustains "millions of documents per day" by chaining independent
components (Figure 3: Alerters feed the Monitoring Query Processor, which
feeds the Subscription Manager and the Reporter).  :func:`feed_document`
runs that chain for one page, in order::

    store     parse + repository store + version diff
    classify  element-level change classification -> FetchedDocument
    alert     document accounting + alerters + weak/strong gating -> Alert
    match     MQP complex-event matching -> notifications

The MQP's sinks route each notification on to the Subscription Manager,
the Trigger Engine and the Reporter.

:meth:`~repro.pipeline.system.SubscriptionSystem.feed` and
:meth:`~repro.pipeline.system.SubscriptionSystem.feed_batch` both call
:func:`feed_document`; a batch feeds its pages one at a time, in input
order, so it produces exactly what feeding them one by one would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..alerters.context import FetchedDocument
from ..core.processor import Alert, Notification
from ..diff.changes import classify_changes
from ..faults.killpoints import KILL_POINT_POST_MATCH, maybe_kill
from ..repository.store import FetchOutcome
from .stream import Fetch

#: Documents per batch when the caller does not choose (``run_stream``).
DEFAULT_BATCH_SIZE = 32

#: Buckets for the ``executor.batch_size`` histogram (documents, not
#: seconds — powers of two up to well past any sensible batch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
)

#: The ``executor=`` label on the batch metrics.  Batches always run
#: serially; the label stays so metric keys keep their names.
EXECUTOR_LABEL = "serial"


@dataclass
class FeedResult:
    """What one fetched page produced inside the system."""

    outcome: FetchOutcome
    alert: Optional[Alert]
    notifications: List[Notification]


def feed_document(system: Any, fetch: Fetch) -> FeedResult:
    """Store, classify, alert and match one page.

    ``system`` is the assembled SubscriptionSystem (duck-typed to avoid an
    import cycle).  A :class:`~repro.errors.ReproError` raised by any step
    propagates: the caller decides whether the page is rejected.
    """
    if fetch.is_xml:
        outcome = system.repository.store_xml(fetch.url, fetch.content)
        changes = None
        if outcome.delta is not None and outcome.touched is not None:
            start = system.metrics.now()
            changes = classify_changes(outcome.delta, outcome.touched)
            system._classify_latency.observe(system.metrics.now() - start)
        fetched = FetchedDocument(
            url=fetch.url,
            meta=outcome.meta,
            status=outcome.status,
            document=outcome.document,
            changes=changes,
        )
    else:
        outcome = system.repository.store_html(fetch.url, fetch.content)
        fetched = FetchedDocument(
            url=fetch.url,
            meta=outcome.meta,
            status=outcome.status,
            raw_content=fetch.content,
        )
    system.documents_fed += 1
    system._fed_counter.inc()
    alert = system.alerter_chain.build_alert(fetched)
    notifications: List[Notification] = []
    if alert is not None:
        notifications = system.processor.process_alert(alert)
        maybe_kill(KILL_POINT_POST_MATCH)
        if notifications:
            system._emitted_counter.inc(len(notifications))
    return FeedResult(outcome=outcome, alert=alert, notifications=notifications)
