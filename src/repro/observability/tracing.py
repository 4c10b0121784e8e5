"""Stage latency histograms on top of the metrics registry.

A *stage* is one named step of the document pipeline (``repository.store_xml``,
``mqp.process_alert``, ...).  Its elapsed times feed the stage's latency
histogram (``<stage>.latency_seconds``, whose ``count`` is the stage call
count).  Hot paths cache the histogram returned by :func:`stage_histogram`
and time themselves inline against the registry's time source.
"""

from __future__ import annotations

from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry

#: Suffix every stage latency histogram shares.
LATENCY_SUFFIX = ".latency_seconds"


def stage_histogram(
    metrics: MetricsRegistry, stage: str, **labels: str
) -> Histogram:
    """The latency histogram of ``stage`` (interned; cache it)."""
    return metrics.histogram(
        stage + LATENCY_SUFFIX, DEFAULT_LATENCY_BUCKETS, **labels
    )
