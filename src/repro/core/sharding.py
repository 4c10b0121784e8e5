"""Distribution of the MQP — Section 4.2, last paragraph.

"Typically, one can use distribution along two directions:

1. *Processing speed*: split the flow of documents into several partitions
   and assign a Monitoring Query Processor to each block of the partition.
2. *Memory*: split the subscriptions into several partitions and assign a
   Monitoring Query Processor to each block.  This results in smaller data
   structures for each processor."

Both partitioners present the same facade as a single
:class:`~repro.core.processor.MonitoringQueryProcessor` so the rest of the
system is oblivious to distribution.  The workers here are in-process (the
original used Corba across a Linux PC cluster); the routing and state-
partitioning logic is identical.

Stats semantics: :meth:`_ShardedBase.stats` describes the *facade* — one
logical processor — so its counters must match what a single
:class:`MonitoringQueryProcessor` would report for the same workload
regardless of the shard count or the partitioning axis.  Registrations are
therefore counted once per complex event (not once per shard it is mirrored
into) and alerts once per document (not once per shard that inspects it).
Per-shard ``shard.stats`` still describe each worker's own share of the
work; when ``metrics`` is given, each worker additionally gets a
``shard=N`` label on its ``mqp.process_alert`` latency histogram.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..clock import Clock, SimulatedClock
from ..errors import MonitoringError
from ..observability.metrics import MetricsRegistry
from .aes import AESMatcher
from .events import AtomicEventKey, ComplexEvent, EventRegistry
from .processor import Alert, MonitoringQueryProcessor, Notification, NotificationSink
from .stats import ProcessorStats


def _stable_hash(text: str) -> int:
    """Deterministic across processes (unlike ``hash`` with PYTHONHASHSEED)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class _ShardedBase:
    """Shared plumbing: a common registry, N workers, facade-level stats."""

    def __init__(
        self,
        shard_count: int,
        matcher_factory: Callable[[], Any] = AESMatcher,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if shard_count < 1:
            raise MonitoringError("shard_count must be at least 1")
        self.registry = EventRegistry()
        self.clock = clock if clock is not None else SimulatedClock()
        self.shards: List[MonitoringQueryProcessor] = [
            MonitoringQueryProcessor(
                registry=self.registry,
                matcher_factory=matcher_factory,
                clock=self.clock,
                metrics=metrics,
                shard_label=str(index),
            )
            for index in range(shard_count)
        ]
        #: Facade-level counters (see the module docstring).
        self._facade_stats = ProcessorStats()

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def add_sink(self, sink: NotificationSink) -> None:
        for shard in self.shards:
            shard.add_sink(sink)

    def stats(self) -> ProcessorStats:
        """Stats of the logical (single-facade) processor.

        Equal to a single :class:`MonitoringQueryProcessor`'s stats for the
        same registrations and alerts, whatever the shard layout.
        """
        return ProcessorStats().merged_with(self._facade_stats)

    def shard_load(self) -> List[int]:
        """Alerts each worker actually inspected (the load distribution)."""
        return [shard.stats.alerts_processed for shard in self.shards]

    def _record_alert(self, alert: Alert, batch: List[Notification]) -> None:
        self._facade_stats.alerts_processed += 1
        self._facade_stats.events_seen += len(alert.event_codes)
        self._facade_stats.notifications_sent += len(batch)

    def structure_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {"tables": 0, "cells": 0, "marks": 0}
        for shard in self.shards:
            for key, value in shard.structure_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals


class FlowPartitionedProcessor(_ShardedBase):
    """Distribution axis 1: every shard holds all subscriptions; each
    document is routed to exactly one shard (by URL hash), multiplying
    processing throughput."""

    def register(self, keys: Iterable[AtomicEventKey]) -> ComplexEvent:
        key_list = list(keys)
        # Register once through the shared registry, then mirror the complex
        # event into every shard's matcher.  The registration is one logical
        # event: count it once, not once per mirror.
        event = self.registry.register_complex(key_list)
        for shard in self.shards:
            shard.matcher.add(event.code, event.atomic_codes)
        self._facade_stats.complex_registered += 1
        return event

    def unregister(self, complex_code: int) -> None:
        event = self.registry.unregister_complex(complex_code)
        for shard in self.shards:
            shard.matcher.remove(event.code, event.atomic_codes)
        self._facade_stats.complex_removed += 1

    def shard_for(self, document_url: str) -> int:
        return _stable_hash(document_url) % len(self.shards)

    def process_alert(self, alert: Alert) -> List[Notification]:
        shard = self.shards[self.shard_for(alert.document_url)]
        batch = shard.process_alert(alert)
        self._record_alert(alert, batch)
        return batch


class SubscriptionPartitionedProcessor(_ShardedBase):
    """Distribution axis 2: subscriptions are split across shards (smaller
    structures per shard); every document's alert visits every shard."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._home_shard: Dict[int, int] = {}
        self._load: List[int] = [0] * len(self.shards)

    def register(self, keys: Iterable[AtomicEventKey]) -> ComplexEvent:
        event = self.registry.register_complex(list(keys))
        target = self._load.index(min(self._load))
        self.shards[target].matcher.add(event.code, event.atomic_codes)
        self._facade_stats.complex_registered += 1
        self._home_shard[event.code] = target
        self._load[target] += 1
        return event

    def unregister(self, complex_code: int) -> None:
        target = self._home_shard.pop(complex_code, None)
        if target is None:
            raise MonitoringError(
                f"complex event {complex_code} is not registered"
            )
        event = self.registry.unregister_complex(complex_code)
        self.shards[target].matcher.remove(event.code, event.atomic_codes)
        self._facade_stats.complex_removed += 1
        self._load[target] -= 1

    def process_alert(self, alert: Alert) -> List[Notification]:
        batch: List[Notification] = []
        for index, shard in enumerate(self.shards):
            # Occupancy check: a shard holding zero complex events cannot
            # match anything — skip it instead of paying the matcher and
            # metrics cost (its ``shard_load`` entry simply stays 0).
            if self._load[index] == 0:
                continue
            batch.extend(shard.process_alert(alert))
        self._record_alert(alert, batch)
        return batch
