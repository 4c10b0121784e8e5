"""The stable public API of the reproduction, in one import.

Everything an application (or a benchmark, or a notebook) needs to run
the Figure 3 monitoring system lives here, re-exported from its home
module under one flat namespace::

    from repro import api

    system = api.SubscriptionSystem(batch_size=64)
    system.subscribe(source, owner_email="me@example.org")
    system.run_stream(crawler.due_fetches())

The groups:

* **system** — :class:`SubscriptionSystem`, :class:`Fetch`,
  :class:`FeedResult`, the errors;
* **ingestion** — :data:`DEFAULT_BATCH_SIZE`, the number of fetches
  ``SubscriptionSystem.run_stream`` feeds per batch;
* **resilience** — fault injection, retry, breaker and dead-letter types;
* **recovery** — :class:`RecoveryManager`, :class:`CrashPoint` and the
  kill-point harness behind ``SubscriptionSystem.enable_recovery`` /
  ``recover_runtime`` (see ``docs/ROBUSTNESS.md``);
* **observability** — the metrics registry types.

Modules under ``repro.*`` remain importable directly, but this facade is
the compatibility surface: names here do not move between releases,
whereas internal module layout may.
"""

from __future__ import annotations

from .clock import SimulatedClock, WallClock
from .errors import (
    PipelineError,
    RecoveryError,
    ReproError,
    SubscriptionSyntaxError,
    XMLSyntaxError,
)
from .faults import (
    KILL_POINTS,
    CircuitBreaker,
    CrashPoint,
    DeadLetterEntry,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from .recovery import RecoveryManager, RuntimeJournal
from .observability import MetricsRegistry, NULL_REGISTRY, NullRegistry
from .pipeline import (
    DEFAULT_BATCH_SIZE,
    Fetch,
    FeedResult,
    SubscriptionSystem,
    from_pairs,
)
from .webworld import SimulatedCrawler, SiteGenerator

__all__ = [
    # system
    "SubscriptionSystem",
    "Fetch",
    "FeedResult",
    "from_pairs",
    "ReproError",
    "PipelineError",
    "SubscriptionSyntaxError",
    "XMLSyntaxError",
    # ingestion
    "DEFAULT_BATCH_SIZE",
    # resilience
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "CircuitBreaker",
    "DeadLetterQueue",
    "DeadLetterEntry",
    # recovery
    "RecoveryManager",
    "RuntimeJournal",
    "RecoveryError",
    "CrashPoint",
    "KILL_POINTS",
    # observability + substrate
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SimulatedClock",
    "WallClock",
    "SimulatedCrawler",
    "SiteGenerator",
]
