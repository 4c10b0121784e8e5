"""Simulated crawler / acquisition-and-refresh module.

The real module "decide[s] when to (re)read an XML or HTML document ...
based on criteria such as the importance of a document, its estimated
change rate or subscriptions involving this particular document"
(Section 2.1).  The simulation keeps a page table with per-page refresh
intervals derived from importance and subscription refresh hints, evolves
page content through a :class:`ChangeModel`, and emits :class:`Fetch`
items in due-time order.

Fault tolerance (``repro.faults``): wiring a
:class:`~repro.faults.FaultInjector` makes fetch attempts fail with the
:class:`~repro.errors.FetchError` taxonomy, and the crawler then behaves
like a production fetcher:

* a transient failure reschedules the URL at the
  :class:`~repro.faults.RetryPolicy` backoff interval instead of the
  nominal refresh interval (``retry.attempts``);
* per-URL :class:`~repro.faults.CircuitBreaker`\\ s open after repeated
  consecutive failures, so dead hosts stop consuming fetch budget until
  a half-open probe succeeds (``breaker.state_changes{to=...}``);
* a fetch whose retries are exhausted — or that failed permanently — is
  quarantined into the :class:`~repro.faults.DeadLetterQueue`.

Determinism contract: page content evolves exactly once per *nominal*
attempt (retries re-serve the already-evolved content), and the injector
draws from its own RNG, so a faulty run consumes the crawler's
content-evolution RNG in exactly the same order as a fault-free run —
once every retry lands, both runs have produced the same fetch contents.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..clock import Clock, SECONDS_PER_DAY, SimulatedClock
from ..errors import FetchError, PipelineError, RecoveryError
from ..faults.dlq import DeadLetterEntry, DeadLetterQueue, SOURCE_CRAWL
from ..faults.injector import FaultInjector
from ..faults.retry import CLOSED, CircuitBreaker, RetryPolicy
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import (
    COUNTER_BREAKER_STATE_CHANGES,
    COUNTER_RETRY_ATTEMPTS,
)
from ..pipeline.stream import Fetch, HTML_PAGE, XML_PAGE
from ..rng import rng_state, set_rng_state
from ..xmlstore.nodes import Document
from ..xmlstore.parser import parse
from ..xmlstore.serializer import serialize
from .change_model import ChangeModel


#: The crawler's running counters, checkpointed by name.
_COUNTERS = (
    "fetches_emitted",
    "faults_seen",
    "retries_scheduled",
    "dead_lettered",
)


@dataclass
class CrawledPage:
    url: str
    kind: str
    document: Optional[Document] = None   # XML pages
    html: Optional[str] = None            # HTML pages
    importance: float = 1.0
    #: Probability that the page changed when refetched.
    change_probability: float = 0.5
    refresh_interval: float = SECONDS_PER_DAY
    next_fetch: float = 0.0
    fetch_count: int = 0

    def state_dict(self) -> Dict:
        state = dict(vars(self))
        if self.document is not None:
            state["document"] = serialize(self.document)
        return state

    @classmethod
    def from_state_dict(cls, state: Dict) -> "CrawledPage":
        state = dict(state)
        if state["document"] is not None:
            state["document"] = parse(state["document"])
        return cls(**state)


@dataclass
class _RetryState:
    """A failed fetch awaiting its next retry attempt."""

    fetch: Fetch
    due: float       # the nominal due time the failed attempt served
    attempt: int     # attempts made so far (>= 1)

    def state_dict(self) -> Dict:
        return {
            "fetch": dict(vars(self.fetch)),
            "due": self.due,
            "attempt": self.attempt,
        }

    @classmethod
    def from_state_dict(cls, state: Dict) -> "_RetryState":
        return cls(
            fetch=Fetch(**state["fetch"]),
            due=state["due"],
            attempt=int(state["attempt"]),
        )


class SimulatedCrawler:
    """Priority-queue crawler over a mutable page table.

    ``fault_injector`` / ``retry_policy`` / ``breaker_factory`` /
    ``dead_letters`` opt the crawler into the resilient fetch path (see
    the module docstring); without an injector the behaviour — and the
    RNG stream — is byte-for-byte the fault-free crawler.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        change_model: Optional[ChangeModel] = None,
        seed: int = 0,
        base_interval: float = SECONDS_PER_DAY,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = (
            CircuitBreaker
        ),
        dead_letters: Optional[DeadLetterQueue] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock if clock is not None else SimulatedClock()
        self.change_model = (
            change_model if change_model is not None else ChangeModel(seed)
        )
        self.rng = random.Random(seed)
        self.base_interval = base_interval
        self.fault_injector = fault_injector
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker_factory = breaker_factory
        self.dead_letters = dead_letters
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._pages: Dict[str, CrawledPage] = {}
        self._queue: List = []  # (next_fetch, url)
        self._retry_states: Dict[str, _RetryState] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.fetches_emitted = 0
        self.faults_seen = 0
        self.retries_scheduled = 0
        self.dead_lettered = 0

    # -- page table ------------------------------------------------------------

    def add_xml_page(
        self,
        url: str,
        document: Document,
        importance: float = 1.0,
        change_probability: float = 0.5,
    ) -> CrawledPage:
        page = CrawledPage(
            url=url,
            kind=XML_PAGE,
            document=document,
            importance=importance,
            change_probability=change_probability,
            refresh_interval=self._interval_for(importance),
            next_fetch=self.clock.now(),
        )
        self._pages[url] = page
        self._push(page)
        return page

    def add_html_page(
        self,
        url: str,
        html: str,
        importance: float = 1.0,
        change_probability: float = 0.3,
    ) -> CrawledPage:
        page = CrawledPage(
            url=url,
            kind=HTML_PAGE,
            html=html,
            importance=importance,
            change_probability=change_probability,
            refresh_interval=self._interval_for(importance),
            next_fetch=self.clock.now(),
        )
        self._pages[url] = page
        self._push(page)
        return page

    def _interval_for(self, importance: float) -> float:
        """More important pages are read more often (Section 2.2)."""
        return self.base_interval / max(importance, 0.1)

    def apply_refresh_hints(self, hints: Dict[str, float]) -> None:
        """Subscriptions' refresh statements shorten page intervals."""
        for url, period in hints.items():
            page = self._pages.get(url)
            if page is not None and period < page.refresh_interval:
                page.refresh_interval = period

    def add_importance(self, url: str, amount: float) -> None:
        page = self._pages.get(url)
        if page is not None:
            page.importance += amount
            page.refresh_interval = self._interval_for(page.importance)

    def set_interval(self, url: str, interval: float) -> None:
        """Pin a page's refresh interval (used by the refresh planner)."""
        page = self._pages.get(url)
        if page is not None:
            page.refresh_interval = max(1.0, interval)

    def apply_plan(self, intervals: Dict[str, float]) -> None:
        """Install a :class:`~repro.webworld.refresh.RefreshPlanner` plan."""
        for url, interval in intervals.items():
            self.set_interval(url, interval)

    def page(self, url: str) -> Optional[CrawledPage]:
        return self._pages.get(url)

    def remove_page(self, url: str) -> None:
        """Forget a page; queued fetch entries for it are skipped."""
        self._pages.pop(url, None)
        self._retry_states.pop(url, None)
        self._breakers.pop(url, None)

    def __len__(self) -> int:
        return len(self._pages)

    # -- breakers ----------------------------------------------------------------

    def breaker(self, url: str) -> Optional[CircuitBreaker]:
        """The circuit breaker for ``url``, if failures created one."""
        return self._breakers.get(url)

    def open_breaker_urls(self) -> List[str]:
        """URLs whose circuit is currently not closed (dead hosts).

        Feed this into
        :meth:`~repro.webworld.refresh.RefreshPlanner.apply_breaker_state`
        so the refresh planner stops budgeting fetches for them.
        """
        return sorted(
            url
            for url, breaker in self._breakers.items()
            if breaker.state != CLOSED
        )

    def _breaker_for(self, url: str) -> Optional[CircuitBreaker]:
        if self.breaker_factory is None:
            return None
        breaker = self._breakers.get(url)
        if breaker is None:
            breaker = self._breakers[url] = self.breaker_factory()
            previous = breaker.on_state_change

            def record(old: str, new: str) -> None:
                self.metrics.counter(
                    COUNTER_BREAKER_STATE_CHANGES, to=new
                ).inc()
                if previous is not None:
                    previous(old, new)

            breaker.on_state_change = record
        return breaker

    # -- checkpoint state --------------------------------------------------------

    def state_dict(self) -> Dict:
        """JSON-serializable crawl cursor: the page table with contents,
        the due-time heap, retry states, circuit breakers, counters and
        every RNG that drives content evolution or fault injection, so a
        restored crawler yields byte-identical fetches."""
        state: Dict = {
            "rng": rng_state(self.rng),
            "base_interval": self.base_interval,
            "pages": [page.state_dict() for page in self._pages.values()],
            "queue": [list(entry) for entry in self._queue],
            "retry_states": {
                url: retry.state_dict()
                for url, retry in self._retry_states.items()
            },
            "breakers": {
                url: breaker.state_dict()
                for url, breaker in self._breakers.items()
            },
            "counters": {name: getattr(self, name) for name in _COUNTERS},
            "change_model": self.change_model.state_dict(),
        }
        if self.fault_injector is not None:
            state["injector"] = self.fault_injector.state_dict()
        return state

    def restore_state(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` in place.  The change model, and
        the fault injector when the state has one, must be wired as they
        were when it was taken."""
        self.change_model.restore_state(state["change_model"])
        if "injector" in state:
            if self.fault_injector is None:
                raise RecoveryError(
                    "the checkpoint was written with a fault injector wired;"
                    " rebuild the crawler with the same FaultPlan before"
                    " restoring"
                )
            self.fault_injector.restore_state(state["injector"])
        set_rng_state(self.rng, state["rng"])
        self.base_interval = state["base_interval"]
        self._pages = {}
        for entry in state["pages"]:
            page = CrawledPage.from_state_dict(entry)
            self._pages[page.url] = page
        self._queue = [(due, url) for due, url in state["queue"]]
        heapq.heapify(self._queue)
        self._retry_states = {
            url: _RetryState.from_state_dict(entry)
            for url, entry in state["retry_states"].items()
        }
        self._breakers = {}
        for url, entry in state["breakers"].items():
            # _breaker_for wires the metric-recording state-change hook.
            breaker = self._breaker_for(url)
            if breaker is None:
                breaker = self._breakers[url] = CircuitBreaker()
            breaker.restore_state(entry)
        for name in _COUNTERS:
            setattr(self, name, int(state["counters"][name]))

    # -- fetching ----------------------------------------------------------------

    def _push(self, page: CrawledPage) -> None:
        # Ties broken by URL, never by insertion order: pop order must be
        # a pure function of (due time, url) so that retry scheduling —
        # which perturbs insertion order but not due times — cannot change
        # the order simultaneous nominal fetches consume the shared
        # content-evolution RNG (the determinism contract above).
        heapq.heappush(self._queue, (page.next_fetch, page.url))

    def _reschedule(self, page: CrawledPage, due: float) -> None:
        """Schedule the next nominal fetch from the *due* time, not now.

        Rescheduling from ``now`` would let a slow consumer permanently
        stretch every page's effective refresh period; anchoring on the
        due time keeps each page on its nominal cadence.  If the consumer
        fell more than a full interval behind, missed slots are skipped
        (no catch-up burst) while the phase of the cadence is preserved.
        """
        interval = page.refresh_interval
        next_time = due + interval
        now = self.clock.now()
        if next_time <= now:
            missed = int((now - due) // interval)
            next_time = due + (missed + 1) * interval
            if next_time <= now:
                next_time += interval
        page.next_fetch = next_time
        self._push(page)

    def due_fetches(self) -> Iterator[Fetch]:
        """Yield fetches whose due time has passed (in due order).

        Page content evolves at fetch time according to the change model
        and each page's change probability, then the page is rescheduled.
        With a fault injector wired, failed attempts are retried at the
        backoff interval, gated by per-URL circuit breakers, and
        quarantined to the dead-letter queue once retries are exhausted —
        see the module docstring.
        """
        now = self.clock.now()
        while self._queue and self._queue[0][0] <= now:
            due, url = heapq.heappop(self._queue)
            page = self._pages.get(url)
            if page is None:
                self._retry_states.pop(url, None)
                continue
            state = self._retry_states.get(url)
            if state is not None:
                fetch = self._attempt_retry(page, state, now)
            else:
                fetch = self._attempt_nominal(page, due, now)
            if fetch is not None:
                self.fetches_emitted += 1
                yield fetch

    def _attempt_nominal(
        self, page: CrawledPage, due: float, now: float
    ) -> Optional[Fetch]:
        """One scheduled fetch: evolve content, then roll for a fault."""
        breaker = self._breakers.get(page.url)
        if breaker is not None and not breaker.allow(now):
            # Open circuit: the page waits on the breaker, not on its
            # refresh interval, and its content does not evolve — a dead
            # host consumes no fetch budget and no RNG.
            page.next_fetch = breaker.retry_at(now)
            self._push(page)
            return None
        fetch = self._fetch(page)
        if self.fault_injector is None:
            self._reschedule(page, due)
            return fetch
        fault = self.fault_injector.roll(page.url, fetch.content)
        if fault is None:
            if breaker is not None:
                breaker.record_success(now)
            self._reschedule(page, due)
            return fetch
        self._record_failure(page.url, now)
        if fault.transient and self.retry_policy.max_attempts > 1:
            self._schedule_retry(page, fetch, due, attempt=1, now=now)
        else:
            self._quarantine(page, fetch, fault, attempts=1, now=now)
            self._reschedule(page, due)
        return None

    def _attempt_retry(
        self, page: CrawledPage, state: _RetryState, now: float
    ) -> Optional[Fetch]:
        """Re-attempt a failed fetch; the content was already evolved."""
        fault = (
            self.fault_injector.roll(page.url, state.fetch.content)
            if self.fault_injector is not None
            else None
        )
        if fault is None:
            breaker = self._breakers.get(page.url)
            if breaker is not None:
                breaker.record_success(now)
            del self._retry_states[page.url]
            self._reschedule(page, state.due)
            return state.fetch
        self._record_failure(page.url, now)
        state.attempt += 1
        if fault.transient and state.attempt < self.retry_policy.max_attempts:
            self._push_retry(page.url, state.attempt, now)
        else:
            self._quarantine(
                page, state.fetch, fault, attempts=state.attempt, now=now
            )
            del self._retry_states[page.url]
            self._reschedule(page, state.due)
        return None

    def _schedule_retry(
        self,
        page: CrawledPage,
        fetch: Fetch,
        due: float,
        attempt: int,
        now: float,
    ) -> None:
        self._retry_states[page.url] = _RetryState(
            fetch=fetch, due=due, attempt=attempt
        )
        self._push_retry(page.url, attempt, now)

    def _push_retry(self, url: str, attempt: int, now: float) -> None:
        delay = self.retry_policy.backoff(attempt, url)
        heapq.heappush(self._queue, (now + delay, url))
        self.retries_scheduled += 1
        self.metrics.counter(COUNTER_RETRY_ATTEMPTS).inc()

    def _record_failure(self, url: str, now: float) -> None:
        self.faults_seen += 1
        breaker = self._breaker_for(url)
        if breaker is not None:
            breaker.record_failure(now)

    def _quarantine(
        self,
        page: CrawledPage,
        fetch: Fetch,
        fault: FetchError,
        attempts: int,
        now: float,
    ) -> None:
        self.dead_lettered += 1
        if self.dead_letters is not None:
            self.dead_letters.push(
                DeadLetterEntry(
                    url=page.url,
                    content=fetch.content,
                    kind=fetch.kind,
                    error=str(fault),
                    error_class=type(fault).__name__,
                    source=SOURCE_CRAWL,
                    attempts=attempts,
                    quarantined_at=now,
                )
            )

    def _fetch(self, page: CrawledPage) -> Fetch:
        """Evolve the page once and build its Fetch (the page *content*
        is what it is regardless of whether our read of it succeeds)."""
        page.fetch_count += 1
        changed = (
            page.fetch_count > 1
            and self.rng.random() < page.change_probability
        )
        if page.kind == XML_PAGE:
            if page.document is None:
                raise PipelineError(
                    f"XML page {page.url} has no document in the page table"
                )
            if changed:
                page.document = self.change_model.mutate(page.document)
            return Fetch(
                url=page.url, content=serialize(page.document), kind=XML_PAGE
            )
        if page.html is None:
            raise PipelineError(
                f"HTML page {page.url} has no content in the page table"
            )
        if changed:
            page.html = page.html.replace(
                "</body>",
                f"<p>update {page.fetch_count}</p></body>",
                1,
            )
        return Fetch(url=page.url, content=page.html, kind=HTML_PAGE)
