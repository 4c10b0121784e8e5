"""The staged ingestion pipeline: one document's task lifecycle.

Xyleme sustains "millions of documents per day" by decomposing ingestion
into independent stages (Figure 3: Alerters feed the Monitoring Query
Processor, which feeds the Subscription Manager and the Reporter).  This
module makes that decomposition explicit in the reproduction: each fetched
page travels through the pipeline as one :class:`PipelineTask`, and each
stage is a ``(system, task) -> None`` step that reads what earlier stages
produced and fills in its own slot::

    load      parse + repository store + version diff
    classify  element-level change classification -> FetchedDocument
    alert     document accounting + alerters + weak/strong gating -> Alert
    match     MQP complex-event matching -> notifications
    route     notification accounting -> FeedResult

The *error slot*: a stage that raises a :class:`~repro.errors.ReproError`
parks the exception on ``task.error`` instead of aborting the batch, so one
malformed page cannot take down its neighbours (per-document error
isolation, exactly as ``run_stream`` always promised).  Any other exception
type is a programming error and propagates.

:meth:`~repro.pipeline.system.SubscriptionSystem.feed_batch` runs every
task through :data:`LIFECYCLE` one at a time, in input order, so a batch
produces exactly what feeding its pages one by one would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..alerters.context import FetchedDocument
from ..core.processor import Alert, Notification
from ..diff.changes import classify_changes
from ..errors import ReproError
from ..faults.killpoints import KILL_POINT_POST_MATCH, maybe_kill
from ..observability.metrics import MetricsRegistry
from ..observability.names import STAGE_EXECUTOR_STAGE, stage_latency_name
from ..repository.store import FetchOutcome
from .stream import Fetch

#: Stage names, in lifecycle order.
STAGE_LOAD = "load"
STAGE_CLASSIFY = "classify"
STAGE_ALERT = "alert"
STAGE_MATCH = "match"
STAGE_ROUTE = "route"

#: Sentinel for a task no stage has completed yet.
STAGE_PENDING = "pending"

#: Documents per batch when the caller does not choose (``run_stream``).
DEFAULT_BATCH_SIZE = 32

#: Buckets for the ``executor.batch_size`` histogram (documents, not
#: seconds — powers of two up to well past any sensible batch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
)

#: The ``executor=`` label on the batch metrics.  Batches always run
#: serially; the label stays so metric keys keep their names.
EXECUTOR_LABEL = "serial"


@dataclass
class FeedResult:
    """What one fetched page produced inside the system."""

    outcome: FetchOutcome
    alert: Optional[Alert]
    notifications: List[Notification]


@dataclass
class PipelineTask:
    """One document's journey through the staged pipeline.

    Every stage reads the slots earlier stages filled and writes its own;
    ``stage`` records the last stage that completed and ``error`` is the
    per-task error slot (a parked :class:`ReproError` means the document
    was rejected; later stages skip the task).
    """

    fetch: Fetch
    #: Filled by the load stage.
    outcome: Optional[FetchOutcome] = None
    #: Filled by the classify stage.
    fetched: Optional[FetchedDocument] = None
    #: Filled by the alert stage (None: only weak events / nothing fired).
    alert: Optional[Alert] = None
    #: Filled by the match stage.
    notifications: List[Notification] = field(default_factory=list)
    #: The error slot (see module docstring).
    error: Optional[BaseException] = None
    failed_stage: Optional[str] = None
    stage: str = STAGE_PENDING

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def done(self) -> bool:
        return self.error is None and self.stage == STAGE_ROUTE

    def result(self) -> FeedResult:
        assert self.outcome is not None
        return FeedResult(
            outcome=self.outcome,
            alert=self.alert,
            notifications=self.notifications,
        )


# -- stage steps -----------------------------------------------------------------
#
# Each step takes the assembled SubscriptionSystem (duck-typed to avoid an
# import cycle) and one task.  Steps assume their predecessors ran, in
# LIFECYCLE order.


def load_stage(system: Any, task: PipelineTask) -> None:
    """Parse and store the page in the repository (input order matters)."""
    fetch = task.fetch
    if fetch.is_xml:
        task.outcome = system.repository.store_xml(fetch.url, fetch.content)
    else:
        task.outcome = system.repository.store_html(fetch.url, fetch.content)


def classify_stage(system: Any, task: PipelineTask) -> None:
    """Element-level change classification + the alerters' input record."""
    outcome = task.outcome
    assert outcome is not None
    fetch = task.fetch
    if fetch.is_xml:
        changes = None
        if outcome.delta is not None and outcome.old_document is not None:
            assert outcome.document is not None
            changes = classify_changes(
                outcome.old_document, outcome.document, outcome.delta
            )
        task.fetched = FetchedDocument(
            url=fetch.url,
            meta=outcome.meta,
            status=outcome.status,
            document=outcome.document,
            changes=changes,
        )
    else:
        task.fetched = FetchedDocument(
            url=fetch.url,
            meta=outcome.meta,
            status=outcome.status,
            raw_content=fetch.content,
        )


def alert_stage(system: Any, task: PipelineTask) -> None:
    """Document accounting + weak/strong gating (Section 5.1)."""
    assert task.fetched is not None
    system.documents_fed += 1
    system._fed_counter.inc()
    task.alert = system.alerter_chain.build_alert(task.fetched)


def match_stage(system: Any, task: PipelineTask) -> None:
    """MQP complex-event detection (dispatches notification sinks)."""
    if task.alert is not None:
        task.notifications = system.processor.process_alert(task.alert)
        maybe_kill(KILL_POINT_POST_MATCH)


def route_stage(system: Any, task: PipelineTask) -> None:
    """Notification accounting; the task is now a complete FeedResult."""
    if task.notifications:
        system._emitted_counter.inc(len(task.notifications))


#: Every document runs these stages, in this order.
LIFECYCLE: Tuple[Tuple[str, Any], ...] = (
    (STAGE_LOAD, load_stage),
    (STAGE_CLASSIFY, classify_stage),
    (STAGE_ALERT, alert_stage),
    (STAGE_MATCH, match_stage),
    (STAGE_ROUTE, route_stage),
)


def run_stage(stage: str, step: Any, system: Any, task: PipelineTask) -> None:
    """Run one stage with the error-slot contract.

    A task whose slot is already occupied is skipped; a ReproError raised
    by the step is parked in the slot; anything else propagates (it is a
    bug, not a bad document).
    """
    if task.error is not None:
        return
    try:
        step(system, task)
    except ReproError as exc:
        task.error = exc
        task.failed_stage = stage
    else:
        task.stage = stage


def observe_stage_times(
    metrics: MetricsRegistry, elapsed: Dict[str, float]
) -> None:
    """Record one batch's time per stage: one observation per touched
    stage in ``executor.stage.latency_seconds{executor=serial,stage=}``."""
    for stage, total in elapsed.items():
        metrics.histogram(
            stage_latency_name(STAGE_EXECUTOR_STAGE),
            executor=EXECUTOR_LABEL,
            stage=stage,
        ).observe(total)
