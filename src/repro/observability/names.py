"""Canonical metric and stage names.

One authoritative list so the instrumented call sites, the snapshot
readers, ``docs/OBSERVABILITY.md`` and ``tests/test_docs_consistency.py``
cannot drift apart: the doc must mention every name below, and every
metric-shaped name the doc mentions must exist here.
"""

from __future__ import annotations

from typing import Tuple

from .tracing import LATENCY_SUFFIX

# -- stages (each emits `<stage>.latency_seconds`; its `count` is the call
# count for that stage) ------------------------------------------------------

STAGE_REPOSITORY_STORE_XML = "repository.store_xml"
STAGE_REPOSITORY_STORE_HTML = "repository.store_html"
STAGE_DIFF_CLASSIFY_CHANGES = "diff.classify_changes"
STAGE_ALERTERS_BUILD_ALERT = "alerters.build_alert"
STAGE_MQP_PROCESS_ALERT = "mqp.process_alert"
STAGE_TRIGGERS_TICK = "triggers.tick"
STAGE_REPORTER_TICK = "reporter.tick"

STAGE_NAMES: Tuple[str, ...] = (
    STAGE_REPOSITORY_STORE_XML,
    STAGE_REPOSITORY_STORE_HTML,
    STAGE_DIFF_CLASSIFY_CHANGES,
    STAGE_ALERTERS_BUILD_ALERT,
    STAGE_MQP_PROCESS_ALERT,
    STAGE_TRIGGERS_TICK,
    STAGE_REPORTER_TICK,
)

# -- executor stages (batch path only: they appear when documents are fed
# through feed_batch / run_stream, not through single-document feeds, so
# they are catalogued separately from the always-present STAGE_NAMES) -------

STAGE_EXECUTOR_RUN_BATCH = "executor.run_batch"  # label: executor

EXECUTOR_STAGE_NAMES: Tuple[str, ...] = (STAGE_EXECUTOR_RUN_BATCH,)

# -- counters ----------------------------------------------------------------

COUNTER_REPOSITORY_OUTCOMES = "repository.outcomes"  # labels: kind, status
COUNTER_ALERTS_BUILT = "alerters.alerts_built"
COUNTER_ALERTS_SUPPRESSED = "alerters.alerts_suppressed"
COUNTER_MQP_NOTIFICATIONS = "mqp.notifications"  # label: shard
COUNTER_TRIGGER_EVALUATIONS = "triggers.evaluations"
COUNTER_REPORTS_GENERATED = "reporter.reports"
COUNTER_DOCUMENTS_FED = "pipeline.documents_fed"
COUNTER_DOCUMENTS_REJECTED = "pipeline.documents_rejected"  # label: reason
COUNTER_NOTIFICATIONS_EMITTED = "pipeline.notifications_emitted"

# Fault-tolerance counters (``repro.faults`` + resilient crawling): they
# appear only when a fault injector / retry policy / breaker actually
# fires, so zero-fault snapshots stay free of them.
COUNTER_FAULTS_INJECTED = "faults.injected"  # label: kind
COUNTER_RETRY_ATTEMPTS = "retry.attempts"
COUNTER_BREAKER_STATE_CHANGES = "breaker.state_changes"  # label: to
COUNTER_DLQ_QUARANTINED = "dlq.quarantined"  # label: source

# Crash-recovery counters (``repro.recovery``): lazily interned — they
# appear only when recovery is enabled on a system, so zero-recovery
# snapshots are byte-identical to systems without a journal.
COUNTER_RECOVERY_CHECKPOINTS = "recovery.checkpoints"
COUNTER_RECOVERY_REPLAYED = "recovery.replayed"
COUNTER_RECOVERY_DEDUPED = "recovery.deduped"
COUNTER_RECOVERY_DISCARDED = "recovery.discarded"

COUNTER_NAMES: Tuple[str, ...] = (
    COUNTER_REPOSITORY_OUTCOMES,
    COUNTER_ALERTS_BUILT,
    COUNTER_ALERTS_SUPPRESSED,
    COUNTER_MQP_NOTIFICATIONS,
    COUNTER_TRIGGER_EVALUATIONS,
    COUNTER_REPORTS_GENERATED,
    COUNTER_DOCUMENTS_FED,
    COUNTER_DOCUMENTS_REJECTED,
    COUNTER_NOTIFICATIONS_EMITTED,
    COUNTER_FAULTS_INJECTED,
    COUNTER_RETRY_ATTEMPTS,
    COUNTER_BREAKER_STATE_CHANGES,
    COUNTER_DLQ_QUARANTINED,
    COUNTER_RECOVERY_CHECKPOINTS,
    COUNTER_RECOVERY_REPLAYED,
    COUNTER_RECOVERY_DEDUPED,
    COUNTER_RECOVERY_DISCARDED,
)

# -- gauges ------------------------------------------------------------------

GAUGE_SUBSCRIPTIONS = "pipeline.subscriptions"
GAUGE_DLQ_DEPTH = "dlq.depth"
#: Bytes of the last checkpoint snapshot (lazily interned, as the
#: recovery counters are).
GAUGE_RECOVERY_SNAPSHOT_BYTES = "recovery.snapshot_bytes"

GAUGE_NAMES: Tuple[str, ...] = (
    GAUGE_SUBSCRIPTIONS,
    GAUGE_DLQ_DEPTH,
    GAUGE_RECOVERY_SNAPSHOT_BYTES,
)

# -- free-standing histograms (not latency-suffixed stage histograms) --------

HISTOGRAM_BATCH_SIZE = "executor.batch_size"  # label: executor

HISTOGRAM_NAMES: Tuple[str, ...] = (HISTOGRAM_BATCH_SIZE,)


def stage_latency_name(stage: str) -> str:
    return stage + LATENCY_SUFFIX


#: Every metric name the assembled system can emit.
ALL_METRIC_NAMES: Tuple[str, ...] = tuple(
    sorted(
        COUNTER_NAMES
        + GAUGE_NAMES
        + HISTOGRAM_NAMES
        + tuple(
            stage_latency_name(stage)
            for stage in STAGE_NAMES + EXECUTOR_STAGE_NAMES
        )
    )
)
