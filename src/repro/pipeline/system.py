"""The assembled subscription system (Figure 3).

:class:`SubscriptionSystem` wires every module of the reproduction the way
the paper's architecture diagram does: the document flow enters through the
loader/repository, Alerters detect atomic events, the Monitoring Query
Processor detects complex events, notifications are routed by the
Subscription Manager to the Reporter and the Trigger Engine, and reports
leave through the email sink / web publisher.

Every page takes the one path of
:func:`repro.pipeline.stages.feed_document`; single pages go through
:meth:`feed_xml` / :meth:`feed_html`, whole crawls through
:meth:`run_stream`, which pulls ``batch_size`` fetches at a time and hands
each batch to :meth:`feed_batch`; a batch's pages are fed one at a time,
in input order.  With crash recovery enabled, a checkpoint may be
taken between any two batches of a stream.

This is the facade examples and integration tests use::

    system = SubscriptionSystem(batch_size=64)
    system.subscribe('subscription S ...', owner_email='user@example.org')
    system.feed_xml('http://site/catalog.xml', '<catalog>...</catalog>')
    system.run_stream(crawler.due_fetches())
    system.advance_days(7)   # trigger engine + reporter timers run
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..alerters.chain import AlerterChain
from ..clock import Clock, SECONDS_PER_DAY, SimulatedClock
from ..core.aes import AESMatcher
from ..core.processor import MonitoringQueryProcessor
from ..core.sharding import (
    FlowPartitionedProcessor,
    SubscriptionPartitionedProcessor,
)
from ..errors import PipelineError, ReportingError, ReproError
from ..faults.dlq import DeadLetterEntry, DeadLetterQueue, SOURCE_PIPELINE
from ..faults.killpoints import KILL_POINT_POST_FETCH, maybe_kill
from ..minisql import Database
from ..observability.metrics import MetricsRegistry, split_key
from ..observability.names import (
    COUNTER_DOCUMENTS_FED,
    COUNTER_DOCUMENTS_REJECTED,
    COUNTER_NOTIFICATIONS_EMITTED,
    GAUGE_SUBSCRIPTIONS,
    HISTOGRAM_BATCH_SIZE,
    STAGE_DIFF_CLASSIFY_CHANGES,
    STAGE_EXECUTOR_RUN_BATCH,
)
from ..observability.tracing import LATENCY_SUFFIX, stage_histogram
from ..query.engine import QueryEngine
from ..reporting.email_sink import EmailSink, WebPublisher
from ..reporting.reporter import Reporter
from ..repository.semantics import SemanticClassifier
from ..repository.store import Repository
from ..subscription.compiler import SubscriptionCompiler
from ..subscription.cost import CostController
from ..subscription.manager import SubscriptionManager
from ..triggers.engine import TriggerEngine
from ..xmlstore.nodes import Document
from ..xmlstore.serializer import serialize
from .stages import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_BATCH_SIZE,
    EXECUTOR_LABEL,
    FeedResult,
    feed_document,
)
from .stream import Fetch, HTML_PAGE, XML_PAGE

__all__ = ["FeedResult", "SubscriptionSystem"]


class SubscriptionSystem:
    """The assembled Figure 3 architecture behind one facade.

    Wires repository, alerters, MQP (optionally sharded), Subscription
    Manager, Trigger Engine and Reporter on a shared simulated clock.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        classifier: Optional[SemanticClassifier] = None,
        matcher_factory: Callable = AESMatcher,
        database: Optional[Database] = None,
        daily_email_capacity: int = 300_000,
        cost_controller: Optional[CostController] = None,
        shards: int = 1,
        shard_mode: str = "flow",
        metrics: Optional[MetricsRegistry] = None,
        batch_size: Optional[int] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
    ):
        """``shards`` > 1 distributes the MQP (Section 4.2): ``shard_mode``
        is "flow" (documents partitioned; every shard holds all
        subscriptions) or "subscriptions" (subscriptions partitioned; every
        document visits every shard).

        ``metrics`` injects the observability registry threaded through
        every stage; the default builds one over the system clock (so
        latencies are deterministic under a :class:`SimulatedClock`).  Pass
        :data:`~repro.observability.NULL_REGISTRY` to disable
        instrumentation entirely.

        ``batch_size`` (documents per :meth:`run_stream` batch, default
        32) configures stream ingestion.

        ``dead_letters`` quarantines pages the loader rejects instead of
        silently dropping them: each rejected fetch becomes a
        :class:`~repro.faults.DeadLetterEntry` (source ``"pipeline"``)
        that :meth:`requeue_dead_letters` can replay later.  ``None``
        keeps the pre-existing drop-and-count behaviour.
        """
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(self.clock)
        )
        self.classifier = (
            classifier if classifier is not None else SemanticClassifier()
        )
        self.repository = Repository(
            classifier=self.classifier, clock=self.clock,
            metrics=self.metrics,
        )
        self.query_engine = QueryEngine(self.repository)
        if shards <= 1:
            self.processor: Any = MonitoringQueryProcessor(
                matcher_factory=matcher_factory, clock=self.clock,
                metrics=self.metrics, shard_label="0",
            )
        elif shard_mode == "subscriptions":
            self.processor = SubscriptionPartitionedProcessor(
                shard_count=shards,
                matcher_factory=matcher_factory,
                clock=self.clock,
                metrics=self.metrics,
            )
        else:
            self.processor = FlowPartitionedProcessor(
                shard_count=shards,
                matcher_factory=matcher_factory,
                clock=self.clock,
                metrics=self.metrics,
            )
        self.alerter_chain = AlerterChain(metrics=self.metrics)
        self.email_sink = EmailSink(
            clock=self.clock, daily_capacity=daily_email_capacity
        )
        self.publisher = WebPublisher()
        self.reporter = Reporter(
            clock=self.clock,
            email_sink=self.email_sink,
            publisher=self.publisher,
            report_query_runner=self._run_report_query,
            metrics=self.metrics,
        )
        self.trigger_engine = TriggerEngine(
            query_engine=self.query_engine,
            deliver=self._deliver_continuous,
            clock=self.clock,
            metrics=self.metrics,
        )
        if cost_controller is None:
            cost_controller = CostController(
                indexes=self.repository.indexes,
                total_documents=0,
            )
        self.cost_controller = cost_controller
        self.compiler = SubscriptionCompiler(
            processor=self.processor,
            alerter_chain=self.alerter_chain,
            trigger_engine=self.trigger_engine,
            reporter=self.reporter,
            repository=self.repository,
        )
        self.manager = SubscriptionManager(
            compiler=self.compiler,
            cost_controller=cost_controller,
            database=database,
        )
        self.processor.add_sink(self.manager.handle_notifications)
        self.documents_fed = 0
        self.documents_rejected = 0
        self._fed_counter = self.metrics.counter(COUNTER_DOCUMENTS_FED)
        self._emitted_counter = self.metrics.counter(
            COUNTER_NOTIFICATIONS_EMITTED
        )
        self._subscriptions_gauge = self.metrics.gauge(GAUGE_SUBSCRIPTIONS)
        self._classify_latency = stage_histogram(
            self.metrics, STAGE_DIFF_CLASSIFY_CHANGES
        )
        self.batch_size = _checked_batch_size(
            DEFAULT_BATCH_SIZE if batch_size is None else batch_size
        )
        self.dead_letters = dead_letters
        #: The attached RecoveryManager, if crash recovery is enabled
        #: (see enable_recovery / recover_runtime).
        self.recovery: Optional[Any] = None
        # Batch metrics are interned on the first feed_batch call so a
        # system fed only through the single-document path keeps a snapshot
        # free of executor.* series.
        self._batch_size_histogram = None
        self._run_batch_latency = None

    # -- subscription API -----------------------------------------------------------

    def subscribe(
        self,
        source: str,
        owner_email: Optional[str] = None,
        recipients: Tuple[str, ...] = (),
        privileged: Optional[bool] = None,
    ) -> int:
        self.cost_controller.total_documents = len(self.repository)
        subscription_id = self.manager.add_subscription(
            source,
            owner_email=owner_email,
            recipients=recipients,
            privileged=privileged,
        )
        self._subscriptions_gauge.set(self.manager.count())
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> None:
        self.manager.remove_subscription(subscription_id)
        self._subscriptions_gauge.set(self.manager.count())

    # -- document flow ------------------------------------------------------------------

    def feed_xml(self, url: str, content: str) -> FeedResult:
        """One XML page fetched by the (simulated) crawler."""
        return self.feed(Fetch(url=url, content=content, kind=XML_PAGE))

    def feed_html(self, url: str, content: str) -> FeedResult:
        """One HTML page: signature tracking + keyword alerting only."""
        return self.feed(Fetch(url=url, content=content, kind=HTML_PAGE))

    def feed(self, fetch: Fetch) -> FeedResult:
        """Feed one page, no batch metrics: a rejected page's error
        propagates to the caller."""
        result = feed_document(self, fetch)
        self._commit_journal()
        return result

    def feed_batch(
        self, fetches: Iterable[Fetch], skip_malformed: bool = True
    ) -> List[FeedResult]:
        """Feed one batch of pages, one at a time, in input order.

        Semantics match sequential :meth:`feed` calls on the same pages,
        with per-document error isolation: a page whose feed raises a
        :class:`~repro.errors.ReproError` is rejected — counted under
        ``documents_rejected`` / ``pipeline.documents_rejected{reason=...}``,
        quarantined when the system has a dead-letter queue, and skipped.
        With ``skip_malformed=False`` the first rejection is raised instead
        and no later page of the batch is fed.  Any other exception is a
        bug, not a bad page, and propagates.

        The journal is committed when the batch returns and before the
        first rejection is raised; never when anything else escapes (a
        crash must leave the batch's deliveries uncommitted).

        Batch observability: one ``executor.batch_size`` observation and
        one ``executor.run_batch.latency_seconds{executor=serial}`` span.
        """
        fetches = list(fetches)
        if not fetches:
            return []
        if self._batch_size_histogram is None:
            self._batch_size_histogram = self.metrics.histogram(
                HISTOGRAM_BATCH_SIZE,
                BATCH_SIZE_BUCKETS,
                executor=EXECUTOR_LABEL,
            )
            self._run_batch_latency = stage_histogram(
                self.metrics, STAGE_EXECUTOR_RUN_BATCH, executor=EXECUTOR_LABEL
            )
        self._batch_size_histogram.observe(len(fetches))
        results: List[FeedResult] = []
        now = self.metrics.now
        start = now()
        try:
            for fetch in fetches:
                try:
                    results.append(feed_document(self, fetch))
                except ReproError as error:
                    if not skip_malformed:
                        self._commit_journal()
                        raise
                    self._reject(fetch, error)
        finally:
            self._run_batch_latency.observe(now() - start)
        self._commit_journal()
        return results

    def _reject(self, fetch: Fetch, error: ReproError) -> None:
        """Count a rejected page and quarantine it."""
        reason = type(error).__name__
        self.documents_rejected += 1
        self.metrics.counter(COUNTER_DOCUMENTS_REJECTED, reason=reason).inc()
        if self.dead_letters is not None:
            self.dead_letters.push(
                DeadLetterEntry(
                    url=fetch.url,
                    content=fetch.content,
                    kind=fetch.kind,
                    error=str(error),
                    error_class=reason,
                    source=SOURCE_PIPELINE,
                    quarantined_at=self.clock.now(),
                )
            )

    def run_stream(
        self, stream: Iterable[Fetch], skip_malformed: bool = True
    ) -> List[FeedResult]:
        """Feed a whole stream, ``batch_size`` fetches at a time.

        Pulls up to the system's ``batch_size`` fetches from ``stream``,
        feeds them through :meth:`feed_batch`, and repeats until the
        stream is exhausted.  With recovery enabled the
        :class:`~repro.recovery.RecoveryManager` is told after each batch
        returns, so a due checkpoint is taken at that batch boundary.  If
        ``stream`` raises, the batches already fed stay fed and the partly
        pulled batch is lost.

        Per-document semantics are those of :meth:`feed_batch`: with
        ``skip_malformed`` (the default) a page the loader rejects — any
        :class:`~repro.errors.ReproError` subclass it raises, not only
        :class:`~repro.errors.XMLSyntaxError` — is counted
        (``documents_rejected``, plus a
        ``pipeline.documents_rejected{reason=...}`` metric recording the
        error class) and skipped rather than aborting the stream.
        """
        fetches = iter(stream)
        results: List[FeedResult] = []
        while True:
            batch = list(islice(fetches, self.batch_size))
            if not batch:
                return results
            maybe_kill(KILL_POINT_POST_FETCH)
            results.extend(
                self.feed_batch(batch, skip_malformed=skip_malformed)
            )
            if self.recovery is not None:
                self.recovery.note_batch()

    def requeue_dead_letters(self) -> Tuple[int, int]:
        """Replay every quarantined document through the pipeline.

        Drains :attr:`dead_letters` and re-feeds each entry via
        :meth:`feed_batch`.  A document rejected again goes straight back
        into quarantine (``feed_batch`` pushes it), so the operation is
        safe to repeat.  Returns ``(recovered, requarantined)``.
        """
        if self.dead_letters is None:
            raise PipelineError(
                "this system has no dead-letter queue; pass dead_letters= "
                "to SubscriptionSystem to enable quarantine"
            )
        entries = self.dead_letters.drain()
        if not entries:
            return (0, 0)
        rejected_before = self.documents_rejected
        results = self.feed_batch(
            [entry.to_fetch() for entry in entries], skip_malformed=True
        )
        requarantined = self.documents_rejected - rejected_before
        return (len(results), requarantined)

    # -- crash recovery ------------------------------------------------------------------

    def enable_recovery(
        self,
        path: str,
        crawler: Optional[Any] = None,
        estimator: Optional[Any] = None,
        checkpoint_every: int = 64,
        metadata: Optional[Any] = None,
    ):
        """Make this system crash-consistent: journal every delivered
        notification to ``path`` (a :class:`~repro.minisql.wal.WriteAheadLog`,
        group-committed with one fsync when each ``feed`` / ``feed_batch``
        / ``advance_time`` call returns) and checkpoint the full runtime —
        reporter buffers, repository, DLQ, and the ``crawler`` /
        ``estimator`` cursors when given — every ``checkpoint_every``
        :meth:`run_stream` batches.  An initial
        checkpoint is written immediately so *any* later crash has a
        restorable snapshot.  Returns the attached
        :class:`~repro.recovery.RecoveryManager`.
        """
        # Lazy import: repro.recovery reaches back into pipeline modules.
        from ..recovery import RecoveryManager

        manager = RecoveryManager(
            self,
            path,
            crawler=crawler,
            estimator=estimator,
            checkpoint_every=checkpoint_every,
            metadata=metadata,
        )
        manager.attach()
        manager.checkpoint()
        return manager

    def recover_runtime(
        self,
        path: str,
        crawler: Optional[Any] = None,
        estimator: Optional[Any] = None,
        checkpoint_every: int = 64,
    ):
        """Rebuild the runtime of a crashed system from its journal.

        Call on a *freshly built* system (typically constructed over
        ``Database.recover(...)`` so the subscription definitions came
        back first); this re-registers the persisted subscriptions,
        restores the checkpointed runtime into this system (and into
        ``crawler`` / ``estimator`` when given — they must be freshly
        built with the same configuration as the crashed run), and
        attaches a :class:`~repro.recovery.RecoveryManager` that dedups
        the regenerated post-checkpoint deliveries against the journal.
        Returns the manager; its ``replayed`` counter says how many
        journaled deliveries the checkpoint had not yet absorbed.
        """
        from ..recovery import RecoveryManager

        self.manager.recover()
        self._subscriptions_gauge.set(self.manager.count())
        manager = RecoveryManager(
            self,
            path,
            crawler=crawler,
            estimator=estimator,
            checkpoint_every=checkpoint_every,
        )
        manager.recover()
        return manager

    # -- observability -------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Plain-dict view of the whole pipeline's metrics.

        Layout::

            {
              "documents_fed": int,            # pages that entered the system
              "documents_rejected": int,       # loader-rejected pages
              "rejections": {reason: count},   # per error-class breakdown
              "notifications_emitted": int,    # MQP notifications, total
              "shard_load": {"0": n, ...},     # alerts inspected per shard
              "stages": {stage: calls},        # per-stage call counts
              "counters": {...},               # raw labelled counters
              "gauges": {...},
              "histograms": {...},             # per-stage latency histograms
            }

        ``counters`` / ``gauges`` / ``histograms`` keep full label detail
        (keys rendered ``name{k=v,...}``); ``stages`` sums each stage's
        latency-histogram counts across labels, so for a clean stream
        ``stages["repository.store_xml"] + stages["repository.store_html"]
        == documents_fed``.
        """
        raw = self.metrics.snapshot()
        stages: dict = {}
        for key, payload in raw["histograms"].items():
            name, _ = split_key(key)
            if name.endswith(LATENCY_SUFFIX):
                stage = name[: -len(LATENCY_SUFFIX)]
                stages[stage] = stages.get(stage, 0) + payload["count"]
        rejections: dict = {}
        for key, value in raw["counters"].items():
            name, labels = split_key(key)
            if name == COUNTER_DOCUMENTS_REJECTED:
                reason = labels.get("reason", "unknown")
                rejections[reason] = rejections.get(reason, 0) + int(value)
        if hasattr(self.processor, "shard_load"):
            loads = self.processor.shard_load()
        else:
            loads = [self.processor.stats.alerts_processed]
        return {
            "documents_fed": self.documents_fed,
            "documents_rejected": self.documents_rejected,
            "rejections": rejections,
            "notifications_emitted": int(
                self.metrics.counter_total(COUNTER_NOTIFICATIONS_EMITTED)
            ),
            "shard_load": {
                str(index): load for index, load in enumerate(loads)
            },
            "stages": stages,
            "counters": raw["counters"],
            "gauges": raw["gauges"],
            "histograms": raw["histograms"],
        }

    # -- time ----------------------------------------------------------------------------

    def advance_time(self, seconds: float, tick_every: float = 3600.0) -> None:
        """Advance the simulated clock, running timers along the way.

        Timers (trigger engine, reporter) are evaluated every ``tick_every``
        simulated seconds so periodic conditions fire at the right times
        within long jumps.
        """
        if not isinstance(self.clock, SimulatedClock):
            raise TypeError("advance_time requires a SimulatedClock")
        remaining = seconds
        while remaining > 0:
            step = min(tick_every, remaining)
            self.clock.advance(step)
            remaining -= step
            self.trigger_engine.tick()
            self.reporter.tick()
        self._commit_journal()

    def advance_days(self, days: float) -> None:
        self.advance_time(days * SECONDS_PER_DAY)

    # -- internal wiring -----------------------------------------------------------------

    def _commit_journal(self) -> None:
        """Group-commit the deliveries of the call that is returning."""
        if self.recovery is not None:
            self.recovery.commit()

    def _deliver_continuous(
        self, subscription_id: int, query_name: str, elements
    ) -> None:
        texts = [serialize(element) for element in elements]
        try:
            self.reporter.deliver(subscription_id, query_name, texts)
        except ReportingError:
            pass

    def _run_report_query(
        self, query_text: str, report_document: Document
    ) -> Document:
        result = self.query_engine.evaluate_on_document(
            query_text, report_document, name="Report"
        )
        return result.to_document()


def _checked_batch_size(batch_size: int) -> int:
    if batch_size < 1:
        raise PipelineError(f"batch_size must be >= 1, got {batch_size}")
    return int(batch_size)
