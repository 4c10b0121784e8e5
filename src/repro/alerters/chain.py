"""Alerter chain: routing, collection, ordering, weak/strong gating.

"An essential aspect of this process is that we collect all the atomic
events of interest on a given document before sending them to the
Monitoring Query Processor" (Section 6.1) — the chain runs every applicable
alerter, merges their event sets, sorts the codes (Section 6.2: the MQP
"takes advantage of the ordering") and builds one :class:`Alert`.

Section 5.1's gating also lives here: weak events (document statuses) are
included in the alert only when at least one *strong* event fired;
otherwise no alert is sent at all — "a document is detected as potentially
interesting if at least a strong atomic event of interest ... is detected.
In this case only, an alert ... is sent."
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..core.events import AtomicEventKey, WEAK_KINDS
from ..core.processor import Alert
from ..errors import MonitoringError
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import (
    COUNTER_ALERTS_BUILT,
    COUNTER_ALERTS_SUPPRESSED,
    STAGE_ALERTERS_BUILD_ALERT,
)
from ..observability.tracing import stage_histogram
from .base import Alerter
from .context import FetchedDocument
from .html_alerter import HTMLAlerter
from .url_alerter import URLAlerter
from .xml_alerter import XMLAlerter


class AlerterChain:
    """Dispatches registrations by event kind and merges detections."""

    def __init__(
        self,
        alerters: Optional[List[Alerter]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if alerters is None:
            alerters = [URLAlerter(), XMLAlerter(), HTMLAlerter()]
        self.alerters = alerters
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._latency = stage_histogram(
            self.metrics, STAGE_ALERTERS_BUILD_ALERT
        )
        self._built = self.metrics.counter(COUNTER_ALERTS_BUILT)
        self._suppressed = self.metrics.counter(COUNTER_ALERTS_SUPPRESSED)
        #: Codes of weak events currently registered (for gating).
        self._weak_codes: Set[int] = set()
        self._registered: Dict[int, List[Alerter]] = {}

    # -- registration -----------------------------------------------------------

    def register(self, code: int, key: AtomicEventKey) -> None:
        targets = [a for a in self.alerters if a.handles(key)]
        if not targets:
            raise MonitoringError(
                f"no alerter handles event kind {key.kind!r}"
            )
        for alerter in targets:
            alerter.register(code, key)
        self._registered[code] = targets
        if key.kind in WEAK_KINDS:
            self._weak_codes.add(code)

    def unregister(self, code: int, key: AtomicEventKey) -> None:
        targets = self._registered.pop(code, None)
        if targets is None:
            return
        for alerter in targets:
            alerter.unregister(code, key)
        self._weak_codes.discard(code)

    # -- detection ----------------------------------------------------------------

    def build_alert(self, fetched: FetchedDocument) -> Optional[Alert]:
        """Run all alerters, merge their detections and apply the
        Section 5.1 gating; return the alert, or None if only weak events
        (or nothing) fired."""
        start = self.metrics.now()
        codes: Set[int] = set()
        data: Dict[int, Any] = {}
        for alerter in self.alerters:
            detected, payload = alerter.detect(fetched)
            codes |= detected
            data.update(payload)
        alert = None
        if codes - self._weak_codes:
            alert = Alert(
                document_url=fetched.url,
                event_codes=sorted(codes),
                data=data,
            )
        self._latency.observe(self.metrics.now() - start)
        if alert is not None:
            self._built.inc()
        else:
            self._suppressed.inc()
        return alert
