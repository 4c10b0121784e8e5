"""Pipeline-wide observability: metrics registry + stage latency histograms.

The paper argues for Xyleme with measured, per-stage behavior (documents/day
through the crawler, alerts/second through the MQP, notifications/day out of
the Reporter).  This package gives the reproduction the same visibility:

* :class:`MetricsRegistry` — dependency-free counters, gauges and
  fixed-bucket latency histograms, deterministic under
  :class:`~repro.clock.SimulatedClock`;
* :class:`NullRegistry` / :data:`NULL_REGISTRY` — the injectable no-op every
  instrumented class defaults to, guaranteeing observability never perturbs
  behavior;
* :func:`stage_histogram` — the ``<stage>.latency_seconds`` histogram a
  pipeline stage times itself into;
* :mod:`repro.observability.names` — the canonical metric-name list that
  ``docs/OBSERVABILITY.md`` is tested against.

The assembled :class:`~repro.pipeline.SubscriptionSystem` owns one registry
and exposes ``system.metrics_snapshot()``.
"""

from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    render_key,
    split_key,
)
from .names import ALL_METRIC_NAMES, COUNTER_NAMES, GAUGE_NAMES, STAGE_NAMES
from .tracing import LATENCY_SUFFIX, stage_histogram

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "render_key",
    "split_key",
    "ALL_METRIC_NAMES",
    "COUNTER_NAMES",
    "GAUGE_NAMES",
    "STAGE_NAMES",
    "LATENCY_SUFFIX",
    "stage_histogram",
]
