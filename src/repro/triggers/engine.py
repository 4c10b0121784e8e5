"""The Trigger Engine (Section 3).

"The Trigger Engine can trigger an external action either upon receiving a
notification, or at a given date.  In our setting, it is in charge of
evaluating the continuous queries either when a particular notification is
detected or regularly (e.g., biweekly).  The query code combined with the
result of the query forms a notification that is sent to the Reporter."

Every evaluation's answer is versioned in the engine's
:class:`~repro.triggers.answers.QueryAnswerStore` (Section 2.2).
``delta`` continuous queries (Section 5.2) deliver what that store's
version chain reports: after the first full answer, only the
modifications of the result, as a ``<Name-delta>`` element built from the
versioning subsystem's delta (insertions/updates carry XIDs, the paper's
naming scheme).  When the answer's root element changes, the chain
restarts and the full answer is delivered again.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..clock import Clock, SimulatedClock
from ..errors import TriggerError
from ..language.ast import ContinuousQuery
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import (
    COUNTER_TRIGGER_EVALUATIONS,
    STAGE_TRIGGERS_TICK,
)
from ..observability.tracing import stage_histogram
from ..language.frequencies import period_seconds
from ..query.engine import QueryEngine
from ..xmlstore.nodes import ElementNode
from .answers import QueryAnswerStore

#: deliver(subscription_id, query_name, elements)
DeliverCallback = Callable[[int, str, List[ElementNode]], None]
#: A scheduled external action.
Action = Callable[[], None]


@dataclass
class _RegisteredQuery:
    subscription_id: int
    definition: ContinuousQuery
    next_due: Optional[float] = None
    evaluations: int = 0


@dataclass
class TriggerStats:
    evaluations: int = 0
    notifications_emitted: int = 0
    actions_fired: int = 0


class TriggerEngine:
    def __init__(
        self,
        query_engine: QueryEngine,
        deliver: DeliverCallback,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.query_engine = query_engine
        self.deliver = deliver
        self.clock = clock if clock is not None else SimulatedClock()
        self.answer_store = QueryAnswerStore()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._tick_latency = stage_histogram(
            self.metrics, STAGE_TRIGGERS_TICK
        )
        self._evaluations = self.metrics.counter(COUNTER_TRIGGER_EVALUATIONS)
        self.stats = TriggerStats()
        self._queries: Dict[Tuple[int, str], _RegisteredQuery] = {}
        #: (subscription_name, monitoring_query_name) -> [(sub_id, cq name)]
        self._notification_triggers: Dict[
            Tuple[str, str], List[Tuple[int, str]]
        ] = {}
        #: External actions on notifications (the generic use the paper
        #: suggests: analysis, classification, versioning ...).
        self._notification_actions: Dict[Tuple[str, str], List[Action]] = {}
        #: (due time, sequence, action) heap for date-based actions.
        self._scheduled_actions: List[Tuple[float, int, Action]] = []
        self._sequence = itertools.count()

    # -- registration ---------------------------------------------------------

    def register(
        self,
        subscription_id: int,
        subscription_name: str,
        definition: ContinuousQuery,
    ) -> None:
        key = (subscription_id, definition.name)
        if key in self._queries:
            raise TriggerError(
                f"continuous query {definition.name!r} already registered"
                f" for subscription {subscription_id}"
            )
        registered = _RegisteredQuery(
            subscription_id=subscription_id, definition=definition
        )
        if definition.frequency is not None:
            period = period_seconds(definition.frequency)
            registered.next_due = self.clock.now() + period
        elif definition.trigger is not None:
            trigger_key = (
                definition.trigger.subscription,
                definition.trigger.query,
            )
            self._notification_triggers.setdefault(trigger_key, []).append(
                key
            )
        else:
            raise TriggerError(
                f"continuous query {definition.name!r} has neither a"
                " frequency nor a trigger"
            )
        self._queries[key] = registered

    def unregister_subscription(self, subscription_id: int) -> None:
        for key in [k for k in self._queries if k[0] == subscription_id]:
            del self._queries[key]
        self.answer_store.drop(subscription_id)
        for trigger_key in list(self._notification_triggers):
            remaining = [
                k
                for k in self._notification_triggers[trigger_key]
                if k[0] != subscription_id
            ]
            if remaining:
                self._notification_triggers[trigger_key] = remaining
            else:
                del self._notification_triggers[trigger_key]

    # -- external actions (generic Trigger Engine surface) -----------------------

    def schedule_action(self, at: float, action: Action) -> None:
        """Run ``action`` at absolute (simulated) time ``at``."""
        heapq.heappush(
            self._scheduled_actions, (at, next(self._sequence), action)
        )

    def on_notification(
        self, subscription_name: str, query_name: str, action: Action
    ) -> None:
        self._notification_actions.setdefault(
            (subscription_name, query_name), []
        ).append(action)

    # -- firing -----------------------------------------------------------------

    def tick(self) -> int:
        """Evaluate all due periodic queries and scheduled actions.

        Returns the number of continuous-query evaluations performed.
        """
        start = self.metrics.now()
        evaluated = self._tick()
        self._tick_latency.observe(self.metrics.now() - start)
        if evaluated:
            self._evaluations.inc(evaluated)
        return evaluated

    def _tick(self) -> int:
        now = self.clock.now()
        evaluated = 0
        while self._scheduled_actions and self._scheduled_actions[0][0] <= now:
            _, _, action = heapq.heappop(self._scheduled_actions)
            action()
            self.stats.actions_fired += 1
        for registered in self._queries.values():
            if registered.next_due is None or registered.next_due > now:
                continue
            period = period_seconds(registered.definition.frequency or "")
            # Catch up without emitting duplicate evaluations for long gaps.
            while registered.next_due is not None and registered.next_due <= now:
                registered.next_due += period
            self._evaluate(registered)
            evaluated += 1
        return evaluated

    def notification_received(
        self, subscription_name: str, query_name: str
    ) -> int:
        """A monitoring notification arrived: fire dependent queries/actions."""
        fired = 0
        for action in self._notification_actions.get(
            (subscription_name, query_name), ()
        ):
            action()
            self.stats.actions_fired += 1
        for key in self._notification_triggers.get(
            (subscription_name, query_name), ()
        ):
            registered = self._queries.get(key)
            if registered is not None:
                self._evaluate(registered)
                fired += 1
        return fired

    # -- evaluation -----------------------------------------------------------------

    def _evaluate(self, registered: _RegisteredQuery) -> None:
        definition = registered.definition
        result = self.query_engine.evaluate(
            definition.query_text, name=definition.name
        )
        self.stats.evaluations += 1
        registered.evaluations += 1
        result_document = result.to_document()
        _, delta = self.answer_store.record(
            registered.subscription_id,
            definition.name,
            result_document,
            evaluated_at=self.clock.now(),
        )
        # Delta mode: a chain's first answer in full, then its changes.
        if not definition.delta or delta is None:
            element = result_document.root
        elif delta:
            element = delta.to_element(name=f"{definition.name}-delta")
        else:
            return
        self.deliver(registered.subscription_id, definition.name, [element])
        self.stats.notifications_emitted += 1
