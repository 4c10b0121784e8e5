"""Pluggable batch executors for the staged ingestion pipeline.

The paper's Xyleme scales ingestion by running its Figure 3 stages as
independent processes.  This module gives the reproduction the same seam:
a :class:`BatchExecutor` turns one batch of
:class:`~repro.pipeline.stages.PipelineTask` items into completed tasks,
and the two implementations trade concurrency for simplicity without
changing observable behaviour:

* :class:`SerialExecutor` — the default; byte-for-byte today's one-document-
  at-a-time behaviour, each task running the full lifecycle in input order.
* :class:`ProcessExecutor` — fans the *pure* stages (XML parsing, alerter
  detection) out over a process pool, then merges back into input order
  before the stateful load/alert/match stages.

Equivalence contract (property-tested): for the same stream, every
executor produces the same notification multiset, the same rejection
accounting and the same document/notification counters as the serial path.

Every executor observes the same batch metrics: one
``executor.stage.latency_seconds{executor=,stage=}`` observation per stage
per batch (the total time the batch spent in that stage), plus the
``executor.batch_size`` histogram, ``executor.run_batch.latency_seconds``
and the ``executor.queue_depth`` gauge maintained by
:meth:`~repro.pipeline.system.SubscriptionSystem.feed_batch`.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import PipelineError
from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    COUNTER_EXECUTOR_FALLBACKS,
    COUNTER_EXECUTOR_WATCHDOG_TIMEOUTS,
    STAGE_EXECUTOR_STAGE,
    stage_latency_name,
)
from .stages import (
    LIFECYCLE,
    PipelineTask,
    STAGE_ALERT,
    STAGE_CLASSIFY,
    STAGE_DETECT,
    STAGE_LOAD,
    STAGE_MATCH,
    STAGE_PARSE,
    STAGE_ROUTE,
    alert_stage,
    classify_stage,
    detect_stage,
    load_stage,
    match_stage,
    parse_stage,
    raise_if_fatal,
    route_stage,
    run_stage,
)

#: Documents per batch when the caller does not choose (``run_stream``).
DEFAULT_BATCH_SIZE = 32

#: Environment variable naming the default executor (CI runs the whole
#: tier-1 suite with ``REPRO_EXECUTOR=process`` to exercise the
#: non-default path).
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Buckets for the ``executor.batch_size`` histogram (documents, not
#: seconds — powers of two up to well past any sensible batch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
)


class _StageTimer:
    """Accumulates per-stage elapsed time across one batch.

    ``flush`` records one observation per touched stage into
    ``executor.stage.latency_seconds{executor=<name>,stage=<stage>}`` — the
    total time this batch spent in that stage, whichever executor shape
    (per-task interleaving or whole-batch sweeps) produced it.
    """

    __slots__ = ("metrics", "executor", "elapsed")

    def __init__(self, metrics: MetricsRegistry, executor: str):
        self.metrics = metrics
        self.executor = executor
        self.elapsed: Dict[str, float] = {}

    def start(self) -> float:
        return self.metrics.now()

    def stop(self, stage: str, start: float) -> None:
        self.elapsed[stage] = (
            self.elapsed.get(stage, 0.0) + self.metrics.now() - start
        )

    def flush(self) -> None:
        for stage, total in self.elapsed.items():
            self.metrics.histogram(
                stage_latency_name(STAGE_EXECUTOR_STAGE),
                executor=self.executor,
                stage=stage,
            ).observe(total)


class BatchExecutor:
    """How one batch of tasks moves through the stage lifecycle.

    ``run_batch`` must run the stateful stages (load/classify/alert/match/
    route) in input order and honour the error-slot contract; with
    ``stop_on_error`` it must not run any stateful stage for tasks after
    the first rejected one (strict-mode streams abort at the first bad
    document, exactly like sequential feeding).
    """

    name = "base"

    def run_batch(
        self,
        system: Any,
        tasks: List[PipelineTask],
        stop_on_error: bool = False,
    ) -> List[PipelineTask]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent; executors without any
        are free to inherit this no-op)."""


class SerialExecutor(BatchExecutor):
    """The reference executor: each task runs the full lifecycle, one task
    at a time, in input order — byte-for-byte the pre-batching behaviour."""

    name = "serial"

    def run_batch(
        self,
        system: Any,
        tasks: List[PipelineTask],
        stop_on_error: bool = False,
    ) -> List[PipelineTask]:
        timer = _StageTimer(system.metrics, self.name)
        for task in tasks:
            raise_if_fatal(task)
            for stage, step in LIFECYCLE:
                start = timer.start()
                run_stage(stage, step, system, task)
                timer.stop(stage, start)
                if task.error is not None:
                    break
            if task.error is not None and stop_on_error:
                break
        timer.flush()
        return tasks


def _contiguous_slices(items: List, lanes: int) -> List[List]:
    """Split ``items`` into at most ``lanes`` contiguous slices."""
    lanes = min(max(1, lanes), len(items))
    bound = -(-len(items) // lanes)  # ceil division
    return [
        items[offset : offset + bound]
        for offset in range(0, len(items), bound)
    ]


class ProcessExecutor(BatchExecutor):
    """True-parallel parse/detect: the pure stages leave the GIL entirely.

    Sweep layout per batch (stateful stages stay in input order)::

        1. parse    — worker processes (payload: ParseRequest/Response)
        2. load + classify — input order (repository state)
        3. detect   — worker processes (payload: DetectRequest/Response)
        4. alert + match + route — input order (counters, MQP, sinks)

    ``workers`` counts parallel lanes *including* the parent process: the
    parent takes the first contiguous slice of every sweep while a lazily
    created pool of ``workers - 1`` processes takes the rest, so
    ``workers=1`` degenerates to the serial path with no pool at all.

    Detection tables travel as a pickled
    :class:`~repro.alerters.DetectorState` snapshot, re-pickled only when
    the chain version changes and cached per worker by version token (see
    :mod:`repro.pipeline.workers`).

    A broken pool (a worker killed mid-batch) degrades the sweep to the
    serial path — counted under ``executor.fallbacks{executor=process}``
    — and the dead pool is discarded so the next batch starts a fresh
    one.  ``watchdog`` (seconds) bounds how long the parent waits for any
    single worker future: a hung worker — stuck rather than dead, which a
    broken-pool check never notices — times the sweep out, the batch
    degrades to the serial path exactly like pool death (counted under
    both ``executor.fallbacks`` and ``executor.watchdog_timeouts``), and
    the pool with the stuck process is discarded.  ``None`` disables the
    watchdog (the pre-existing wait-forever behaviour).
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        watchdog: Optional[float] = None,
    ):
        if workers is None:
            workers = max(2, min(8, os.cpu_count() or 2))
        if watchdog is not None and watchdog <= 0:
            raise PipelineError(
                f"watchdog timeout must be positive, got {watchdog}"
            )
        self.workers = max(1, int(workers))
        self.watchdog = watchdog
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._blob_token: Optional[Tuple[int, int]] = None
        self._blob: bytes = b""

    # -- pool plumbing ----------------------------------------------------

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self.workers <= 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers - 1
                )
            return self._pool

    def _discard_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def _detector_blob(self, system: Any) -> Tuple[Tuple[int, int], bytes]:
        """The pickled detector snapshot, re-pickled once per version."""
        state = system.alerter_chain.detector_state()
        if state.token != self._blob_token:
            self._blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
            self._blob_token = state.token
        return self._blob_token, self._blob

    def _process_sweep(
        self,
        worker_fn: Callable,
        requests: List,
        apply_fn: Callable[[Any], None],
        extra_args: Tuple = (),
    ) -> None:
        """Fan a request list over the pool; parent takes the first slice.

        Raises whatever the pool raises (broken pool, unpicklable
        payload) — callers guard with a serial fallback.
        """
        pool = self._ensure_pool() if len(requests) > 1 else None
        if pool is None:
            for response in worker_fn(*extra_args, requests):
                apply_fn(response)
            return
        slices = _contiguous_slices(requests, self.workers)
        futures = [
            pool.submit(worker_fn, *extra_args, piece)
            for piece in slices[1:]
        ]
        try:
            for response in worker_fn(*extra_args, slices[0]):
                apply_fn(response)
            for future in futures:
                for response in future.result(timeout=self.watchdog):
                    apply_fn(response)
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    # -- the batch --------------------------------------------------------

    def run_batch(
        self,
        system: Any,
        tasks: List[PipelineTask],
        stop_on_error: bool = False,
    ) -> List[PipelineTask]:
        from .workers import DetectRequest, ParseRequest, detect_slice, parse_slice

        timer = _StageTimer(system.metrics, self.name)

        # 1. parse — worker processes.
        parseable = [
            t for t in tasks if t.fetch.is_xml and t.document is None
        ]
        start = timer.start()
        if parseable:
            requests = [
                ParseRequest(t.index, t.fetch.url, t.fetch.content)
                for t in parseable
            ]
            by_index = {t.index: t for t in parseable}

            def apply_parse(response) -> None:
                task = by_index[response.index]
                if response.error is not None:
                    task.error = response.error
                    task.failed_stage = STAGE_PARSE
                else:
                    task.document = response.document
                    task.stage = STAGE_PARSE

            try:
                self._process_sweep(parse_slice, requests, apply_parse)
            except Exception as exc:
                self._degrade(system, exc)
                for task in parseable:
                    parse_stage(task)
        timer.stop(STAGE_PARSE, start)

        # 2. load + classify — input order.
        reached = len(tasks)
        for position, task in enumerate(tasks):
            raise_if_fatal(task)
            start = timer.start()
            run_stage(STAGE_LOAD, load_stage, system, task)
            timer.stop(STAGE_LOAD, start)
            start = timer.start()
            run_stage(STAGE_CLASSIFY, classify_stage, system, task)
            timer.stop(STAGE_CLASSIFY, start)
            if task.error is not None and stop_on_error:
                reached = position + 1
                break
        live = tasks[:reached]

        # 3. detect — worker processes (documents ship as pickled
        # FetchedDocument payloads; detection results come back as code
        # sets + payload copies).
        detectable = [t for t in live if t.error is None]
        start = timer.start()
        if len(detectable) == 1:
            detect_stage(system, detectable[0])
        elif detectable:
            requests = [
                DetectRequest(t.index, t.fetched) for t in detectable
            ]
            by_index = {t.index: t for t in detectable}

            def apply_detect(response) -> None:
                task = by_index[response.index]
                if response.error is not None:
                    task.detection_error = response.error
                else:
                    task.detection = response.detection

            try:
                token, blob = self._detector_blob(system)
                self._process_sweep(
                    detect_slice,
                    requests,
                    apply_detect,
                    extra_args=(token, blob),
                )
            except Exception as exc:
                self._degrade(system, exc)
                for task in detectable:
                    detect_stage(system, task)
        timer.stop(STAGE_DETECT, start)

        # 4. alert + match + route — input order.
        for task in live:
            for stage, step in (
                (STAGE_ALERT, alert_stage),
                (STAGE_MATCH, match_stage),
                (STAGE_ROUTE, route_stage),
            ):
                start = timer.start()
                run_stage(stage, step, system, task)
                timer.stop(stage, start)
                if task.error is not None:
                    break
            if task.error is not None and stop_on_error:
                break
        timer.flush()
        return tasks

    def _degrade(self, system: Any, exc: Exception) -> None:
        """Degrade one batch to the serial path instead of aborting the
        stream: count it under ``executor.fallbacks{executor=process}``
        and discard the pool if it died or hung."""
        system.metrics.counter(
            COUNTER_EXECUTOR_FALLBACKS, executor=self.name
        ).inc()
        if isinstance(exc, FuturesTimeoutError):
            # A hung worker: the future never completed within the
            # watchdog.  The pool still holds the stuck process, so it is
            # discarded wholesale — the next batch starts a fresh one.
            system.metrics.counter(
                COUNTER_EXECUTOR_WATCHDOG_TIMEOUTS, executor=self.name
            ).inc()
            self._discard_pool()
        elif isinstance(exc, BrokenExecutor):
            self._discard_pool()
