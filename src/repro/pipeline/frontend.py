"""Asyncio fetch front-end: concurrent acquisition feeding the bounded queue.

The paper's crawlers acquire pages concurrently — fetch latency overlaps
across connections — while the monitoring pipeline consumes completed
fetches.  :class:`AsyncFetchFrontend` reproduces that shape on top of the
simulated web: ``concurrency`` coroutines pull due fetches from a
:class:`~repro.webworld.crawler.SimulatedCrawler`, optionally await a
simulated network latency, and push each completed fetch into a
:class:`~repro.pipeline.ingest.BoundedFetchQueue`.  The queue's bound is
the only coupling to the pipeline: when the pipeline falls behind, puts
block, the coroutines stall, and acquisition throttles itself.

``crawler.due_fetches()`` is a stateful generator (retry/breaker logic
mutates crawler state as it yields), so it is *not* safe to advance from
two places at once.  All coroutines run on one event loop thread and
``next(...)`` is called inline between awaits, which serialises access
without a lock.  Blocking ``queue.put`` calls are pushed to the loop's
default thread-pool executor so a full queue never stalls the loop itself.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Iterator, Optional

from ..observability.names import COUNTER_FRONTEND_FETCHES
from .ingest import BoundedFetchQueue, IngestCancelled
from .stream import Fetch

__all__ = ["AsyncFetchFrontend"]


class AsyncFetchFrontend:
    """Drains a crawler's due fetches concurrently into a bounded queue."""

    def __init__(
        self,
        crawler: Any,
        *,
        concurrency: int = 8,
        latency: Optional[Callable[[Fetch], float]] = None,
        metrics: Optional[Any] = None,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.crawler = crawler
        self.concurrency = concurrency
        self.latency = latency
        # Interned on the first fetch so an empty crawl leaves no series.
        self._metrics = metrics

    def pump(self, queue: BoundedFetchQueue) -> int:
        """Drain every due fetch into ``queue``; returns the fetch count.

        Runs its own event loop, so it is called from a plain (feeder)
        thread — typically by
        :meth:`~repro.pipeline.ingest.IngestSession.run_crawl`.
        """
        return asyncio.run(self._pump(queue))

    async def _pump(self, queue: BoundedFetchQueue) -> int:
        fetch_iter: Iterator[Fetch] = iter(self.crawler.due_fetches())
        loop = asyncio.get_running_loop()
        pumped = 0

        async def worker() -> None:
            nonlocal pumped
            while True:
                try:
                    fetch = next(fetch_iter)
                except StopIteration:
                    return
                if self.latency is not None:
                    delay = self.latency(fetch)
                    if delay and delay > 0:
                        await asyncio.sleep(delay)
                await loop.run_in_executor(None, queue.put, fetch)
                pumped += 1
                if self._metrics is not None:
                    self._metrics.counter(COUNTER_FRONTEND_FETCHES).inc()

        tasks = [
            asyncio.ensure_future(worker()) for _ in range(self.concurrency)
        ]
        try:
            await asyncio.gather(*tasks)
        except IngestCancelled:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        return pumped
