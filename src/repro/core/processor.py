"""The Monitoring Query Processor (MQP) — Section 4 of the paper.

The MQP receives *alerts* — the set of atomic events an alerter chain
detected for one document plus opaque data — and determines which complex
events (monitoring queries) the document matches, emitting *notifications*.
As in the paper:

* the MQP "has no semantic knowledge of the data associated to the atomic
  or complex events it handles" — ``Alert.data`` is forwarded untouched;
* "all the complex events are detected on a document simultaneously and
  thus are sent to the Reporter/Trigger Engine in one batch" — sinks
  receive the whole per-document notification list in one call;
* subscriptions "keep being added, removed and updated while the system is
  running" — registration and removal work on a live matcher.

The matcher engine is pluggable (:class:`~repro.core.aes.AESMatcher` by
default; the baselines share the same protocol) so the benchmarks can
compare algorithms behind the exact same facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..clock import Clock, SimulatedClock
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import (
    COUNTER_MQP_NOTIFICATIONS,
    STAGE_MQP_PROCESS_ALERT,
)
from ..observability.tracing import stage_histogram
from .aes import AESMatcher
from .events import AtomicEventKey, ComplexEvent, EventRegistry
from .stats import ProcessorStats


@dataclass(frozen=True)
class Alert:
    """What an alerter chain sends for one document (Section 3, Alerters).

    ``event_codes`` must be sorted ascending without duplicates — the URL
    alerter "must produce a sorted sequence since the Monitoring Query
    Processor takes advantage of the ordering" (Section 6.2).
    ``data`` maps atomic-event codes to what the select clause requested,
    forwarded transparently: the serialized text of each matched element.
    """

    document_url: str
    event_codes: Sequence[int]
    data: Dict[int, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Notification:
    """One detected complex event for one document."""

    complex_code: int
    document_url: str
    timestamp: float
    data: Dict[int, Any] = field(default_factory=dict)


#: A sink receives the full batch of notifications for one document.
NotificationSink = Callable[[List[Notification]], None]


class MonitoringQueryProcessor:
    """Facade over the event registry + a matcher engine + sinks."""

    def __init__(
        self,
        registry: Optional[EventRegistry] = None,
        matcher_factory: Callable[[], Any] = AESMatcher,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
        shard_label: Optional[str] = None,
    ):
        """``metrics`` / ``shard_label`` instrument ``process_alert``: the
        sharded processors give each worker its own ``shard=N`` label so the
        snapshot shows the load distribution."""
        self.registry = registry if registry is not None else EventRegistry()
        self.matcher = matcher_factory()
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        labels = {} if shard_label is None else {"shard": shard_label}
        self._latency = stage_histogram(
            self.metrics, STAGE_MQP_PROCESS_ALERT, **labels
        )
        self._notified = self.metrics.counter(
            COUNTER_MQP_NOTIFICATIONS, **labels
        )
        self.stats = ProcessorStats()
        self._sinks: List[NotificationSink] = []

    # -- subscription-side API ------------------------------------------------

    def register(self, keys: Iterable[AtomicEventKey]) -> ComplexEvent:
        """Register a conjunction of atomic conditions as a complex event."""
        event = self.registry.register_complex(keys)
        self.matcher.add(event.code, event.atomic_codes)
        self.stats.complex_registered += 1
        return event

    def unregister(self, complex_code: int) -> None:
        """Remove a complex event while the system runs (Section 4.1)."""
        event = self.registry.unregister_complex(complex_code)
        self.matcher.remove(event.code, event.atomic_codes)
        self.stats.complex_removed += 1

    def add_sink(self, sink: NotificationSink) -> None:
        self._sinks.append(sink)

    # -- document-side API -------------------------------------------------------

    def process_alert(self, alert: Alert) -> List[Notification]:
        """Match one alert; dispatch and return its notification batch."""
        start = self.metrics.now()
        now = self.clock.now()
        matched = self.matcher.match(alert.event_codes)
        notifications = [
            Notification(
                complex_code=code,
                document_url=alert.document_url,
                timestamp=now,
                data=alert.data,
            )
            for code in matched
        ]
        self.stats.alerts_processed += 1
        self.stats.events_seen += len(alert.event_codes)
        self.stats.notifications_sent += len(notifications)
        self.dispatch(notifications)
        self._latency.observe(self.metrics.now() - start)
        if notifications:
            self._notified.inc(len(notifications))
        return notifications

    def dispatch(self, notifications: List[Notification]) -> None:
        """Forward one non-empty notification batch to every sink."""
        if notifications:
            for sink in self._sinks:
                sink(notifications)

    # -- introspection -----------------------------------------------------------

    def structure_stats(self) -> Dict[str, int]:
        return self.matcher.structure_stats()
