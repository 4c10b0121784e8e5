"""The (Xyleme) Reporter — Section 3 and Section 5.3.

The generic Reporter "stores the notifications it receives.  When a report
condition is satisfied, it sends these notifications as an XML document."
The Xyleme Reporter then "post-processes this report, basically by applying
an XML query to it", and delivers by email (and, as our extension, web
publication).

Per subscription the Reporter enforces:

* the ``when`` disjunction (count / periodic / immediate terms);
* ``atmost N`` — "after 500 notifications, we stop registering the new
  notifications until the next report";
* ``atmost <frequency>`` — a delivery rate limit;
* ``archive <frequency>`` — retention in the report archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..clock import Clock, SimulatedClock
from ..errors import RecoveryError, ReportingError
from ..language.ast import ReportCondition
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import (
    COUNTER_REPORTS_GENERATED,
    STAGE_REPORTER_TICK,
)
from ..observability.tracing import stage_histogram
from ..language.frequencies import period_seconds
from ..xmlstore.nodes import Document, ElementNode
from ..xmlstore.parser import parse
from ..xmlstore.serializer import serialize
from .archive import ReportArchive
from .conditions import BufferState, condition_holds
from .email_sink import EmailSink, WebPublisher

#: Applied to the raw ``<Report>`` document when a report query is present;
#: wiring in the warehouse query engine happens in the pipeline layer so
#: the Reporter itself stays generic (it "can be used in a more general
#: setting", Section 3).
ReportQueryRunner = Callable[[str, Document], Document]


@dataclass
class ReportRegistration:
    subscription_id: int
    when: ReportCondition
    recipients: Tuple[str, ...] = ()
    report_query: Optional[str] = None
    atmost_count: Optional[int] = None
    atmost_frequency: Optional[str] = None
    archive_frequency: Optional[str] = None
    report_name: str = "Report"


@dataclass
class _SubscriptionBuffer:
    registration: ReportRegistration
    state: BufferState
    notifications: List[ElementNode] = field(default_factory=list)
    suppressed: int = 0  # dropped past the atmost count
    last_delivery_at: Optional[float] = None
    pending_rate_limited: bool = False

    def state_dict(self) -> Dict:
        return {
            "notifications": [
                serialize(element) for element in self.notifications
            ],
            "suppressed": self.suppressed,
            "last_delivery_at": self.last_delivery_at,
            "pending_rate_limited": self.pending_rate_limited,
            "state": {
                "total_count": self.state.total_count,
                "counts_by_query": dict(self.state.counts_by_query),
                "last_report_at": self.state.last_report_at,
                "last_arrival_at": self.state.last_arrival_at,
            },
        }

    def restore_state(self, state: Dict) -> None:
        self.notifications = [
            parse(xml).root for xml in state["notifications"]
        ]
        self.suppressed = int(state["suppressed"])
        self.last_delivery_at = state["last_delivery_at"]
        self.pending_rate_limited = bool(state["pending_rate_limited"])
        counts = state["state"]
        self.state.total_count = int(counts["total_count"])
        self.state.counts_by_query = dict(counts["counts_by_query"])
        self.state.last_report_at = counts["last_report_at"]
        self.state.last_arrival_at = counts["last_arrival_at"]


@dataclass
class ReporterStats:
    notifications_received: int = 0
    notifications_suppressed: int = 0
    reports_generated: int = 0
    emails_sent: int = 0


class Reporter:
    def __init__(
        self,
        clock: Optional[Clock] = None,
        email_sink: Optional[EmailSink] = None,
        publisher: Optional[WebPublisher] = None,
        archive: Optional[ReportArchive] = None,
        report_query_runner: Optional[ReportQueryRunner] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._tick_latency = stage_histogram(
            self.metrics, STAGE_REPORTER_TICK
        )
        self._reports = self.metrics.counter(COUNTER_REPORTS_GENERATED)
        self.email_sink = (
            email_sink if email_sink is not None else EmailSink(self.clock)
        )
        self.publisher = publisher if publisher is not None else WebPublisher()
        self.archive = (
            archive if archive is not None else ReportArchive(self.clock)
        )
        self.report_query_runner = report_query_runner
        self.stats = ReporterStats()
        self._buffers: Dict[int, _SubscriptionBuffer] = {}
        #: Crash recovery taps deliveries here (``repro.recovery``); the
        #: hook fires for every non-empty delivery, before buffering.
        self.delivery_hook: Optional[
            Callable[[int, Optional[str], List[ElementNode]], None]
        ] = None

    # -- registration ---------------------------------------------------------

    def register(self, registration: ReportRegistration) -> None:
        if registration.subscription_id in self._buffers:
            raise ReportingError(
                f"subscription {registration.subscription_id} already has a"
                " report buffer"
            )
        self._buffers[registration.subscription_id] = _SubscriptionBuffer(
            registration=registration,
            state=BufferState(self.clock.now()),
        )

    def unregister(self, subscription_id: int) -> None:
        self._buffers.pop(subscription_id, None)
        self.archive.drop_subscription(subscription_id)

    def registered(self, subscription_id: int) -> bool:
        return subscription_id in self._buffers

    # -- notification intake -----------------------------------------------------

    def deliver(
        self,
        subscription_id: int,
        query_name: Optional[str],
        elements: List[ElementNode],
    ) -> None:
        """Buffer a batch of notification elements for one subscription."""
        buffer = self._buffers.get(subscription_id)
        if buffer is None:
            raise ReportingError(
                f"no report buffer for subscription {subscription_id}"
            )
        if not elements:
            return
        if self.delivery_hook is not None:
            self.delivery_hook(subscription_id, query_name, elements)
        now = self.clock.now()
        limit = buffer.registration.atmost_count
        accepted = elements
        if limit is not None:
            room = limit - len(buffer.notifications)
            if room <= 0:
                accepted = []
            elif len(elements) > room:
                accepted = elements[:room]
        dropped = len(elements) - len(accepted)
        if dropped:
            buffer.suppressed += dropped
            self.stats.notifications_suppressed += dropped
        if accepted:
            buffer.notifications.extend(accepted)
            buffer.state.record_arrivals(query_name, len(accepted), now)
            self.stats.notifications_received += len(accepted)
        self._maybe_report(buffer)

    # -- timers ---------------------------------------------------------------------

    def tick(self) -> int:
        """Re-evaluate periodic conditions and rate-limited deliveries.

        Returns the number of reports generated by this tick.
        """
        start = self.metrics.now()
        generated = 0
        for buffer in list(self._buffers.values()):
            if self._maybe_report(buffer):
                generated += 1
        self.email_sink.drain_backlog()
        self.archive.garbage_collect()
        self._tick_latency.observe(self.metrics.now() - start)
        return generated

    # -- reporting ---------------------------------------------------------------------

    def _maybe_report(self, buffer: _SubscriptionBuffer) -> bool:
        now = self.clock.now()
        if not buffer.notifications and not buffer.pending_rate_limited:
            return False
        due = buffer.pending_rate_limited or condition_holds(
            buffer.registration.when, buffer.state, now
        )
        if not due:
            return False
        frequency = buffer.registration.atmost_frequency
        if frequency is not None and buffer.last_delivery_at is not None:
            if now - buffer.last_delivery_at < period_seconds(frequency):
                # "atmost weekly means we do not send a report more
                # frequently than once a week even if the when condition
                # triggers more often" — hold until the window opens.
                buffer.pending_rate_limited = True
                return False
        if not buffer.notifications:
            buffer.pending_rate_limited = False
            return False
        self._generate_report(buffer, now)
        return True

    def _generate_report(
        self, buffer: _SubscriptionBuffer, now: float
    ) -> None:
        registration = buffer.registration
        root = ElementNode(registration.report_name)
        for element in buffer.notifications:
            root.append(element)
        report_document = Document(root)
        if (
            registration.report_query is not None
            and self.report_query_runner is not None
        ):
            report_document = self.report_query_runner(
                registration.report_query, report_document
            )
        body = serialize(report_document)

        for recipient in registration.recipients:
            self.email_sink.send(
                recipient,
                subject=f"[Xyleme] report for subscription"
                f" {registration.subscription_id}",
                body=body,
            )
            self.stats.emails_sent += 1
        self.publisher.publish(registration.subscription_id, body)
        if registration.archive_frequency is not None:
            self.archive.archive(
                registration.subscription_id,
                body,
                registration.archive_frequency,
            )
        buffer.notifications = []
        buffer.suppressed = 0
        buffer.state.reset_after_report(now)
        buffer.last_delivery_at = now
        buffer.pending_rate_limited = False
        self.stats.reports_generated += 1
        self._reports.inc()

    # -- introspection -------------------------------------------------------------------

    def pending_count(self, subscription_id: int) -> int:
        buffer = self._buffers.get(subscription_id)
        return len(buffer.notifications) if buffer is not None else 0

    def force_report(self, subscription_id: int) -> bool:
        """Generate a report now regardless of the when clause (admin API)."""
        buffer = self._buffers.get(subscription_id)
        if buffer is None or not buffer.notifications:
            return False
        self._generate_report(buffer, self.clock.now())
        return True

    # -- checkpoint state -----------------------------------------------------------------

    def state_dict(self) -> Dict:
        """JSON-serializable state: every subscription's buffered
        notifications, suppression and rate-limit state and
        ``when``-condition counters."""
        return {
            "buffers": {
                str(subscription_id): buffer.state_dict()
                for subscription_id, buffer in self._buffers.items()
            }
        }

    def restore_state(
        self,
        state: Dict,
        removed: Callable[[int], bool],
    ) -> None:
        """Refill the buffers of the subscriptions registered here.

        A buffer of a subscription that ``removed`` says was unsubscribed
        since the checkpoint is dropped, as :meth:`unregister` would have
        dropped it; any other unknown subscription is an error.
        """
        for key, payload in state["buffers"].items():
            subscription_id = int(key)
            buffer = self._buffers.get(subscription_id)
            if buffer is None:
                if removed(subscription_id):
                    continue
                raise RecoveryError(
                    f"checkpoint names subscription {subscription_id} but"
                    " the recovered manager has no report buffer for it —"
                    " recover the subscription database first"
                )
            buffer.restore_state(payload)
