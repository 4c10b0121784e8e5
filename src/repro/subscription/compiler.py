"""Subscription compilation: AST -> registrations across the system.

The Subscription Manager "chooses the internal codes of atomic events and
(dynamically) warns the Alerters of the creation of new events ... It
controls in a similar manner the Monitoring Query Processor for managing
complex events, the Trigger Engine for continuous queries and the
Reporter(s) for reports" (Section 3).  This module is that wiring:

* each monitoring query becomes a complex event in the MQP, its atomic
  conditions become interned atomic events registered with the alerter
  chain, and a :class:`NotificationBinding` records how to render its
  notifications;
* continuous queries are registered with the Trigger Engine;
* the report section (or a default ``when immediate``) goes to the
  Reporter;
* refresh statements add importance to the mentioned pages (Section 2.2)
  and are exposed as crawler hints.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..alerters.chain import AlerterChain
from ..core.events import AtomicEventKey
from ..language.ast import (
    ImmediateCondition,
    MonitoringQuery,
    ReportCondition,
    ReportSpec,
    Subscription,
)
from ..language.conditions import condition_event_key
from ..language.frequencies import period_seconds
from ..reporting.reporter import Reporter, ReportRegistration
from ..triggers.engine import TriggerEngine
from .rendering import NotificationBinding, Template, compile_template
from .rendering import item_event_codes

#: Default report section when a subscription omits one.
DEFAULT_REPORT = ReportSpec(
    when=ReportCondition(terms=(ImmediateCondition(),))
)


@dataclass
class CompiledSubscription:
    subscription_id: int
    name: str
    source_text: str
    owner_email: Optional[str] = None
    recipients: Tuple[str, ...] = ()
    privileged: bool = False
    active: bool = True
    #: Complex-event codes registered for this subscription's monitoring
    #: queries, aligned with the parsed ``monitoring`` list.
    complex_codes: List[int] = field(default_factory=list)
    bindings: Dict[int, NotificationBinding] = field(default_factory=dict)
    #: (target subscription name, query name or None) virtual references.
    virtual_refs: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    #: url -> refresh period in seconds (crawler hints).
    refresh_hints: Dict[str, float] = field(default_factory=dict)


class SubscriptionCompiler:
    """Performs the registrations for one subscription."""

    def __init__(
        self,
        processor,  # MonitoringQueryProcessor or a sharded facade
        alerter_chain: AlerterChain,
        trigger_engine: Optional[TriggerEngine],
        reporter: Optional[Reporter],
        repository=None,
    ):
        self.processor = processor
        self.alerter_chain = alerter_chain
        self.trigger_engine = trigger_engine
        self.reporter = reporter
        self.repository = repository
        #: Alerter-side refcounts: atomic code -> registrations using it.
        self._alerted: Dict[int, int] = {}
        #: select template text -> its compiled form, kept while a binding
        #: holds it: subscriptions with one template share one.
        self._templates = weakref.WeakValueDictionary()

    def templates(
        self, subscription: Subscription
    ) -> List[Optional[Template]]:
        """Each monitoring query's compiled select template, or ``None``;
        raises :class:`~repro.errors.SubscriptionError` for a malformed one."""
        compiled = []
        for query in subscription.monitoring:
            text = query.select.template
            template = None if text is None else self._templates.get(text)
            if text is not None and template is None:
                template = self._templates[text] = compile_template(text)
            compiled.append(template)
        return compiled

    # -- compile -----------------------------------------------------------------

    def compile(
        self,
        subscription_id: int,
        subscription: Subscription,
        source_text: str,
        owner_email: Optional[str] = None,
        recipients: Tuple[str, ...] = (),
        privileged: bool = False,
        templates: Optional[List[Optional[Template]]] = None,
    ) -> CompiledSubscription:
        compiled = CompiledSubscription(
            subscription_id=subscription_id,
            name=subscription.name,
            source_text=source_text,
            owner_email=owner_email,
            recipients=recipients,
            privileged=privileged,
        )
        if templates is None:  # compiled before any registration
            templates = self.templates(subscription)
        for index, query in enumerate(subscription.monitoring):
            self._compile_monitoring(
                compiled, subscription, index, query, templates[index]
            )
        if self.trigger_engine is not None:
            for continuous in subscription.continuous:
                self.trigger_engine.register(
                    subscription_id, subscription.name, continuous
                )
        if self.reporter is not None:
            report = subscription.report or DEFAULT_REPORT
            self.reporter.register(
                ReportRegistration(
                    subscription_id=subscription_id,
                    when=report.when,
                    recipients=recipients,
                    report_query=report.query_text,
                    atmost_count=report.atmost_count,
                    atmost_frequency=report.atmost_frequency,
                    archive_frequency=report.archive_frequency,
                )
            )
        for refresh in subscription.refreshes:
            compiled.refresh_hints[refresh.url] = period_seconds(
                refresh.frequency
            )
            if self.repository is not None:
                self.repository.add_importance(refresh.url, 1.0)
        for virtual in subscription.virtuals:
            compiled.virtual_refs.append((virtual.subscription, virtual.query))
        return compiled

    def _compile_monitoring(
        self,
        compiled: CompiledSubscription,
        subscription: Subscription,
        index: int,
        query: MonitoringQuery,
        template: Optional[Template],
    ) -> None:
        """Register one complex event per disjunct of the where clause.

        All of a query's disjuncts share one :class:`NotificationBinding`
        (same query name, same select); the Subscription Manager
        deduplicates per-document batches so a document matching several
        disjuncts notifies once.
        """
        query_name = query.name or f"Q{index + 1}"
        registry = self.processor.registry
        merged_item_codes: Dict[str, int] = {}
        disjunct_events = []
        for disjunct in query.all_disjuncts():
            keys = [
                condition_event_key(condition, query.from_bindings)
                for condition in disjunct
            ]
            event = self.processor.register(keys)
            condition_codes: List[int] = []
            unique: Dict[AtomicEventKey, int] = {}
            for key in keys:
                code = registry.atomic_code(key)
                assert code is not None
                condition_codes.append(code)
                unique[key] = code
            for key, code in unique.items():
                count = self._alerted.get(code, 0)
                if count == 0:
                    self.alerter_chain.register(code, key)
                self._alerted[code] = count + 1
            if self.repository is not None:
                # "Subscriptions influence the refreshing of pages only by
                # adding importance to the pages they explicitly mention"
                # (Section 2.2) — exact-URL conditions mention a page.
                for condition in disjunct:
                    if condition.kind == "url_eq" and condition.string:
                        self.repository.add_importance(
                            condition.string, 0.5
                        )
            narrowed = MonitoringQuery(
                name=query.name,
                select=query.select,
                from_bindings=query.from_bindings,
                conditions=disjunct,
            )
            for item, code in item_event_codes(
                narrowed, condition_codes
            ).items():
                merged_item_codes.setdefault(item, code)
            disjunct_events.append(event)

        binding = NotificationBinding(
            subscription_id=compiled.subscription_id,
            subscription_name=subscription.name,
            query_name=query_name,
            template=template,
            item_codes=tuple(
                merged_item_codes[item]
                for item in query.select.items
                if item in merged_item_codes
            ),
        )
        for event in disjunct_events:
            compiled.complex_codes.append(event.code)
            compiled.bindings[event.code] = binding

    # -- decompile ------------------------------------------------------------------

    def release(self, compiled: CompiledSubscription) -> None:
        """Undo every registration of :meth:`compile`."""
        registry = self.processor.registry
        for complex_code in compiled.complex_codes:
            # Read the keys before unregistering retires them.
            codes = registry.complex_event(complex_code).atomic_codes
            keys = [registry.atomic_key(code) for code in codes]
            self.processor.unregister(complex_code)
            for key, code in zip(keys, codes):
                count = self._alerted.get(code, 0) - 1
                if count <= 0:
                    self._alerted.pop(code, None)
                    self.alerter_chain.unregister(code, key)
                else:
                    self._alerted[code] = count
        if self.trigger_engine is not None:
            self.trigger_engine.unregister_subscription(
                compiled.subscription_id
            )
        if self.reporter is not None:
            self.reporter.unregister(compiled.subscription_id)
