"""The staged ingestion pipeline: one document's task lifecycle.

Xyleme sustains "millions of documents per day" by decomposing ingestion
into independent stages (Figure 3: Alerters feed the Monitoring Query
Processor, which feeds the Subscription Manager and the Reporter).  This
module makes that decomposition explicit in the reproduction: each fetched
page travels through the pipeline as one :class:`PipelineTask`, and each
stage is a ``(system, task) -> None`` step that reads what earlier stages
produced and fills in its own slot::

    parse     pure: XML text -> Document        (hoistable to worker processes)
    load      repository store + version diff   (stateful, input order)
    classify  element-level change classification -> FetchedDocument
    detect    pure: run every alerter            (hoistable to worker processes)
    alert     document accounting + weak/strong gating -> Alert
    match     MQP complex-event matching -> notifications
    route     notification accounting -> FeedResult

The *error slot*: a stage that raises a :class:`~repro.errors.ReproError`
parks the exception on ``task.error`` instead of aborting the batch, so one
malformed page cannot take down its neighbours (per-document error
isolation, exactly as ``run_stream`` always promised).  Any other exception
type is a programming error and propagates.

Executors (:mod:`repro.pipeline.executor`) decide *how* tasks move through
the stages — strictly one at a time, or with the pure stages fanned out over
a process pool — but every executor runs the stateful stages in input
order, which is what makes them observably equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..alerters.context import FetchedDocument
from ..core.processor import Alert, Notification
from ..diff.changes import classify_changes
from ..errors import ReproError
from ..faults.killpoints import KILL_POINT_POST_MATCH, maybe_kill
from ..repository.store import FetchOutcome
from ..xmlstore.nodes import Document
from ..xmlstore.parser import parse
from .stream import Fetch

#: Stage names, in lifecycle order.  ``parse`` and ``detect`` are the pure
#: halves of ``load`` and ``alert`` that executors may run in worker
#: processes; the serial executor folds them into their stateful partners.
STAGE_PARSE = "parse"
STAGE_LOAD = "load"
STAGE_CLASSIFY = "classify"
STAGE_DETECT = "detect"
STAGE_ALERT = "alert"
STAGE_MATCH = "match"
STAGE_ROUTE = "route"

#: Sentinel for a task no stage has completed yet.
STAGE_PENDING = "pending"

#: What the alerter chain's pure half returns (codes, payload).
Detection = Tuple[Set[int], Dict[int, Any]]


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
    index: int = 0
    #: Filled by the parse stage (XML only); the load stage reuses it so a
    #: worker pre-parse is never repeated.
    document: Optional[Document] = None
    #: Filled by the load stage.
    outcome: Optional[FetchOutcome] = None
    #: Filled by the classify stage.
    fetched: Optional[FetchedDocument] = None
    #: Filled by the detect stage when an executor pre-computes detection on
    #: a worker process; the alert stage then only gates and assembles.
    detection: Optional[Detection] = None
    #: A non-ReproError raised by a concurrent detect sweep, re-raised at
    #: the task's ordered position so propagation matches the serial path.
    detection_error: Optional[BaseException] = None
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
# import cycle) and one task.  Steps assume their predecessors ran; the
# executors guarantee the ordering.


def parse_stage(task: PipelineTask) -> PipelineTask:
    """Pure XML parsing, safe in worker processes (no shared state).

    Failures — of any exception type — are parked on the error slot; the
    load stage re-raises non-ReproErrors at the task's ordered position so
    propagation order matches the serial path exactly.
    """
    fetch = task.fetch
    if fetch.is_xml and task.document is None:
        try:
            task.document = parse(fetch.content)
        except Exception as exc:  # noqa: BLE001 — re-raised in order by load
            task.error = exc
            task.failed_stage = STAGE_PARSE
    if task.error is None:
        task.stage = STAGE_PARSE
    return task


def load_stage(system: Any, task: PipelineTask) -> None:
    """Store the page in the repository (stateful; input order matters)."""
    fetch = task.fetch
    if fetch.is_xml:
        content = task.document if task.document is not None else fetch.content
        task.outcome = system.repository.store_xml(fetch.url, content)
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


def detect_stage(system: Any, task: PipelineTask) -> PipelineTask:
    """Run every alerter over the document — the pure, read-only half of
    alert building, safe to run concurrently across documents."""
    assert task.fetched is not None
    try:
        task.detection = system.alerter_chain.detect_events(task.fetched)
    except Exception as exc:  # noqa: BLE001 — re-raised in order by alert
        task.detection_error = exc
    return task


def alert_stage(system: Any, task: PipelineTask) -> None:
    """Document accounting + weak/strong gating (Section 5.1)."""
    assert task.fetched is not None
    system.documents_fed += 1
    system._fed_counter.inc()
    if task.detection_error is not None:
        raise task.detection_error
    if task.detection is not None:
        task.alert = system.alerter_chain.finish_alert(
            task.fetched, task.detection
        )
    else:
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


#: The stateful lifecycle every executor runs in input order.  The pure
#: ``parse`` / ``detect`` stages are not listed: they are optional hoists
#: whose work the ``load`` / ``alert`` stages subsume when absent.
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


def raise_if_fatal(task: PipelineTask) -> None:
    """Re-raise a parked non-ReproError at the task's ordered position."""
    if task.error is not None and not isinstance(task.error, ReproError):
        raise task.error
