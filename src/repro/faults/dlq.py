"""Bounded dead-letter quarantine for poison documents.

A fetch whose retries are exhausted (or that failed permanently), and a
document the pipeline keeps rejecting, must not be silently dropped — at
web scale "drop and forget" loses subscriptions' data — nor retried
forever.  They are quarantined here: a bounded FIFO of
:class:`DeadLetterEntry` records carrying everything needed to re-feed
the document later (URL, raw content, page kind) plus the failure
forensics (error class, message, attempt count, quarantine time).

The queue is inspectable and requeue-able from the CLI
(``repro-monitor dlq list|requeue|purge`` over a JSON file written with
:meth:`DeadLetterQueue.save`) and observable through the ``dlq.depth``
gauge and the ``dlq.quarantined{source=...}`` counter.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Iterator, List, Optional

from ..errors import PipelineError
from ..minisql.wal import write_json_atomic
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import COUNTER_DLQ_QUARANTINED, GAUGE_DLQ_DEPTH
from ..pipeline.stream import Fetch, XML_PAGE

#: Where an entry came from: the crawler's fetch path or the pipeline's
#: per-document rejection path.
SOURCE_CRAWL = "crawl"
SOURCE_PIPELINE = "pipeline"


@dataclass
class DeadLetterEntry:
    """One quarantined document, replayable via :meth:`to_fetch`."""

    url: str
    content: str
    kind: str = XML_PAGE
    error: str = ""
    error_class: str = ""
    source: str = SOURCE_CRAWL
    attempts: int = 1
    quarantined_at: float = 0.0

    def to_fetch(self) -> Fetch:
        return Fetch(url=self.url, content=self.content, kind=self.kind)

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "DeadLetterEntry":
        return cls(**payload)


class DeadLetterQueue:
    """Bounded FIFO of poison documents; oldest entries are evicted.

    ``capacity`` bounds memory: pushing into a full queue evicts the
    oldest entry and counts it in :attr:`dropped` (a real system would
    page these to cold storage; the reproduction records the loss).
    ``metrics`` wires the ``dlq.depth`` gauge and the
    ``dlq.quarantined{source=...}`` counter.
    """

    def __init__(
        self,
        capacity: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity < 1:
            raise PipelineError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._entries: Deque[DeadLetterEntry] = deque()
        self.dropped = 0
        self.total_quarantined = 0
        self._depth_gauge = self.metrics.gauge(GAUGE_DLQ_DEPTH)
        self._depth_gauge.set(0)

    # -- writing -----------------------------------------------------------

    def push(self, entry: DeadLetterEntry) -> None:
        if len(self._entries) >= self.capacity:
            self._entries.popleft()
            self.dropped += 1
        self._entries.append(entry)
        self.total_quarantined += 1
        self.metrics.counter(
            COUNTER_DLQ_QUARANTINED, source=entry.source
        ).inc()
        self._depth_gauge.set(len(self._entries))

    def drain(self) -> List[DeadLetterEntry]:
        """Remove and return every entry (the requeue primitive)."""
        entries = list(self._entries)
        self._entries.clear()
        self._depth_gauge.set(0)
        return entries

    def purge(self) -> int:
        """Discard every entry; returns how many were dropped."""
        count = len(self._entries)
        self._entries.clear()
        self._depth_gauge.set(0)
        return count

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetterEntry]:
        return iter(self._entries)

    def entries(self) -> List[DeadLetterEntry]:
        return list(self._entries)

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict:
        """JSON-serializable state; also the CLI interchange format."""
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "total_quarantined": self.total_quarantined,
            "entries": [entry.to_dict() for entry in self._entries],
        }

    def restore_state(self, state: Dict) -> None:
        """Replace the queue's contents with ``state``'s.

        The capacity stays this queue's own; entries past it are evicted
        oldest first and counted in :attr:`dropped`, as :meth:`push`
        does.
        """
        self._entries = deque(
            DeadLetterEntry.from_dict(record) for record in state["entries"]
        )
        self.dropped = int(state["dropped"])
        self.total_quarantined = int(state["total_quarantined"])
        while len(self._entries) > self.capacity:
            self._entries.popleft()
            self.dropped += 1
        self._depth_gauge.set(len(self._entries))

    def save(self, path: str) -> None:
        """Write :meth:`state_dict` to ``path`` as JSON, atomically."""
        write_json_atomic(path, self.state_dict(), indent=2, sort_keys=True)

    @classmethod
    def load(
        cls,
        path: str,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "DeadLetterQueue":
        """A queue of the saved capacity holding the saved state."""
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        queue = cls(capacity=int(state["capacity"]), metrics=metrics)
        queue.restore_state(state)
        return queue
