"""Bounded-backpressure ingestion: the queue and the session facade.

The paper's Xyleme separates *acquisition* (crawlers fetching millions of
pages per day) from *monitoring* (the Figure 3 pipeline); between the two
sits a buffer that must not grow without limit when the pipeline is the
slow side.  This module is that seam for the reproduction:

* :class:`BoundedFetchQueue` — a thread-safe queue of
  :class:`~repro.pipeline.stream.Fetch` items with a hard bound.
  Producers block when the queue is full (each blocking put is counted
  under ``ingest.backpressure_waits``), so a slow pipeline throttles the
  fetch rate instead of buffering the crawl; the
  ``executor.queue_depth`` gauge tracks the depth and can therefore
  actually saturate at the bound.
* :class:`IngestSession` — the front door for feeding documents:
  ``feed`` / ``feed_batch`` / ``run`` / ``run_crawl`` with one batch size,
  queue bound and rejection policy.

``SubscriptionSystem.run_stream`` routes through an :class:`IngestSession`
(a feeder thread fills the bounded queue while the calling thread drains
it in batches), so every stream — plain iterables and the asyncio fetch
front-end alike — gets the same backpressure and the same per-document
rejection semantics.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional

from ..errors import PipelineError, RecoveryError
from ..faults.killpoints import KILL_POINT_POST_FETCH, maybe_kill
from ..observability.names import (
    COUNTER_INGEST_BACKPRESSURE_WAITS,
    GAUGE_EXECUTOR_QUEUE_DEPTH,
)
from .stages import FeedResult
from .stream import Fetch

__all__ = ["BoundedFetchQueue", "IngestCancelled", "IngestReport", "IngestSession"]


class IngestCancelled(Exception):
    """Raised inside a producer blocked on a cancelled queue (internal:
    the feeder catches it and stops consuming the stream)."""


@dataclass
class IngestReport:
    """What one streaming run did, beyond its per-document results."""

    documents: int
    batches: int
    peak_queue_depth: int
    backpressure_waits: int


class BoundedFetchQueue:
    """A bounded, thread-safe fetch buffer with backpressure.

    One producer side (``put`` / ``close`` / ``fail``), one consumer side
    (``next_batch``).  ``put`` blocks while the queue holds ``bound``
    items; ``next_batch`` blocks until a full batch is available or the
    stream ends.  A producer failure is re-raised after the full batches
    buffered before it have been served: a stream error loses only the
    partially accumulated batch.
    """

    def __init__(self, bound: int, metrics: Optional[Any] = None):
        if bound < 1:
            raise PipelineError(f"queue bound must be >= 1, got {bound}")
        self.bound = int(bound)
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._cancelled = False
        self._failure: Optional[BaseException] = None
        self.peak_depth = 0
        self.backpressure_waits = 0
        self._gauge = (
            metrics.gauge(GAUGE_EXECUTOR_QUEUE_DEPTH)
            if metrics is not None
            else None
        )
        # Interned on first actual wait so streams that never block keep
        # their metric snapshot identical to the plain feed_batch path.
        self._metrics = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def _set_gauge(self) -> None:
        if self._gauge is not None:
            self._gauge.set(len(self._items))

    # -- producer side ----------------------------------------------------

    def put(self, fetch: Fetch) -> None:
        """Enqueue one fetch, blocking while the queue is full."""
        with self._not_full:
            if len(self._items) >= self.bound and not self._cancelled:
                self.backpressure_waits += 1
                if self._metrics is not None:
                    self._metrics.counter(
                        COUNTER_INGEST_BACKPRESSURE_WAITS
                    ).inc()
                while len(self._items) >= self.bound and not self._cancelled:
                    self._not_full.wait()
            if self._cancelled:
                raise IngestCancelled()
            if self._closed:
                raise PipelineError("put() on a closed ingest queue")
            self._items.append(fetch)
            depth = len(self._items)
            if depth > self.peak_depth:
                self.peak_depth = depth
            self._set_gauge()
            self._not_empty.notify()

    def close(self) -> None:
        """Mark the stream exhausted; pending items remain consumable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def fail(self, error: BaseException) -> None:
        """Mark the stream failed; ``next_batch`` re-raises ``error``
        once the full batches already buffered have been served."""
        with self._lock:
            self._failure = error
            self._closed = True
            self._not_empty.notify_all()

    # -- consumer side ----------------------------------------------------

    def cancel(self) -> None:
        """Abort from the consumer side: wake and fail blocked ``put``\\ s
        so the producer stops consuming its stream."""
        with self._lock:
            self._cancelled = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def next_batch(self, size: int) -> Optional[List[Fetch]]:
        """Dequeue the next batch of up to ``size`` fetches.

        Blocks until a full batch is buffered or the producer closed the
        stream; the final batch may be short.  Returns ``None`` when the
        stream is exhausted; raises the producer's error once every full
        batch buffered before the failure has been served.
        """
        if size < 1:
            raise PipelineError(f"batch size must be >= 1, got {size}")
        with self._not_empty:
            while len(self._items) < size and not self._closed:
                self._not_empty.wait()
            if len(self._items) >= size:
                batch = [self._items.popleft() for _ in range(size)]
            elif self._failure is None and self._items:
                batch = list(self._items)
                self._items.clear()
            else:
                batch = None
            self._set_gauge()
            self._not_full.notify_all()
            if batch is not None:
                return batch
            if self._failure is not None:
                # The partially accumulated tail is lost.
                self._items.clear()
                raise self._failure
            return None


class IngestSession:
    """One configured way of feeding documents into a system.

    Unifies the feeding surface of ``feed``/``feed_batch``/``run_stream``::

        from repro.api import IngestSession, SubscriptionSystem

        system = SubscriptionSystem()
        with IngestSession(system, batch_size=64, queue_bound=128) as s:
            s.run(stream)                  # any iterable of Fetch items
            s.run_crawl(crawler)           # asyncio fetch front-end
            print(s.last_report)

    ``batch_size`` / ``queue_bound`` default to the system's
    configuration.
    """

    def __init__(
        self,
        system: Any,
        *,
        batch_size: Optional[int] = None,
        queue_bound: Optional[int] = None,
        skip_malformed: bool = True,
    ):
        self.system = system
        self.batch_size = (
            int(batch_size) if batch_size is not None else system.batch_size
        )
        if self.batch_size < 1:
            raise PipelineError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        default_bound = getattr(system, "queue_bound", None)
        if queue_bound is not None:
            self.queue_bound = int(queue_bound)
        elif default_bound is not None:
            self.queue_bound = max(int(default_bound), self.batch_size)
        else:
            self.queue_bound = 2 * self.batch_size
        if self.queue_bound < self.batch_size:
            raise PipelineError(
                f"queue_bound ({self.queue_bound}) must be >= batch_size"
                f" ({self.batch_size}) or full batches could never form"
            )
        self.skip_malformed = skip_malformed
        self.last_report: Optional[IngestReport] = None

    # -- single documents and prebuilt batches ----------------------------

    def feed(self, fetch: Fetch) -> FeedResult:
        """One document, no batch metrics, failures propagate (as
        ``feed`` always did)."""
        return self.system.feed(fetch)

    def feed_batch(self, fetches: Iterable[Fetch]) -> List[FeedResult]:
        """One prebuilt batch, with this session's rejection policy."""
        return self.system.feed_batch(
            fetches, skip_malformed=self.skip_malformed
        )

    # -- streams ----------------------------------------------------------

    def run(self, stream: Iterable[Fetch]) -> List[FeedResult]:
        """Feed a whole stream through the bounded queue.

        A feeder thread fills the queue (blocking at ``queue_bound``)
        while this thread drains batches of ``batch_size`` into
        ``feed_batch`` — so ``executor.queue_depth`` reflects real
        buffering and saturates at the bound.
        """

        def produce(queue: BoundedFetchQueue) -> None:
            for fetch in stream:
                queue.put(fetch)

        return self._run_with_producer(produce)

    def run_crawl(
        self,
        crawler: Any,
        *,
        concurrency: int = 8,
        latency: Optional[Callable[[Fetch], float]] = None,
    ) -> List[FeedResult]:
        """Drain a crawler's due fetches through the asyncio front-end.

        ``concurrency`` parallel fetch coroutines pull from
        ``crawler.due_fetches()`` and fill the bounded queue as their
        (simulated) responses arrive; see
        :class:`~repro.pipeline.frontend.AsyncFetchFrontend`.
        """
        from .frontend import AsyncFetchFrontend

        frontend = AsyncFetchFrontend(
            crawler,
            concurrency=concurrency,
            latency=latency,
            metrics=self.system.metrics,
        )
        return self._run_with_producer(frontend.pump)

    def resume(self, stream: Iterable[Fetch]) -> List[FeedResult]:
        """Continue a recovered system's ingestion from its checkpoint.

        Identical to :meth:`run`, but guarded: the system must carry a
        :class:`~repro.recovery.RecoveryManager` (attach one with
        ``SubscriptionSystem.recover_runtime``), so the regenerated
        post-checkpoint deliveries dedup against the journal instead of
        being journaled — and therefore delivered — twice.
        """
        if getattr(self.system, "recovery", None) is None:
            raise RecoveryError(
                "resume() needs a recovered system: call"
                " SubscriptionSystem.recover_runtime() first (or use"
                " run() for a fresh stream)"
            )
        return self.run(stream)

    def _run_with_producer(
        self, produce: Callable[[BoundedFetchQueue], Any]
    ) -> List[FeedResult]:
        queue = BoundedFetchQueue(self.queue_bound, metrics=self.system.metrics)

        def feeder() -> None:
            try:
                produce(queue)
            except IngestCancelled:
                return
            except BaseException as exc:  # noqa: BLE001 — re-raised by consumer
                queue.fail(exc)
                return
            queue.close()

        thread = threading.Thread(
            target=feeder, name="repro-ingest-feeder", daemon=True
        )
        recovery = getattr(self.system, "recovery", None)
        if recovery is not None:
            # Checkpoints are deferred while the stream is live: the
            # feeder thread mutates crawler/frontend state concurrently,
            # so mid-stream runtime snapshots would not be sound.
            recovery.stream_started()
        thread.start()
        results: List[FeedResult] = []
        batches = 0
        try:
            while True:
                batch = queue.next_batch(self.batch_size)
                if batch is None:
                    break
                maybe_kill(KILL_POINT_POST_FETCH)
                results.extend(
                    self.system.feed_batch(
                        batch, skip_malformed=self.skip_malformed
                    )
                )
                batches += 1
        except BaseException:
            queue.cancel()
            thread.join()
            if recovery is not None:
                recovery.stream_aborted()
            raise
        thread.join()
        if recovery is not None:
            recovery.stream_finished()
        self.last_report = IngestReport(
            documents=len(results),
            batches=batches,
            peak_queue_depth=queue.peak_depth,
            backpressure_waits=queue.backpressure_waits,
        )
        return results

    # -- lifecycle --------------------------------------------------------
    #
    # A session holds no resources; the context-manager form only scopes it.

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, *exc_info) -> None:
        return None
