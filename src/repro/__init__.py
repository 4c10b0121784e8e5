"""repro — reproduction of "Monitoring XML Data on the Web" (SIGMOD 2001).

The package implements the Xyleme change-control / subscription subsystem
described by Nguyen, Abiteboul, Cobéna and Preda, plus every substrate it
depends on, in pure Python:

* ``repro.core`` — the Monitoring Query Processor and the **Atomic Event
  Sets** algorithm (the paper's primary contribution), with the naive and
  counting baselines and the two distribution axes;
* ``repro.language`` — the subscription language (monitoring queries,
  continuous queries, reports, refresh, virtual subscriptions);
* ``repro.alerters`` — URL / XML / HTML alerters;
* ``repro.subscription`` — the Subscription Manager (compilation, routing,
  cost control, SQL-backed persistence and recovery);
* ``repro.triggers`` / ``repro.reporting`` — Trigger Engine and Reporter;
* ``repro.xmlstore`` / ``repro.diff`` / ``repro.query`` /
  ``repro.repository`` / ``repro.minisql`` — XML, versioning, query and
  storage substrates;
* ``repro.webworld`` — the synthetic web and the paper's controlled
  experiment workloads;
* ``repro.pipeline`` — :class:`SubscriptionSystem`, the assembled system;
* ``repro.observability`` — metrics registry + stage latency histograms
  through every stage above (``system.metrics_snapshot()``);
* ``repro.faults`` — seeded fault injection plus the resilience toolkit
  (retry with backoff, circuit breakers, dead-letter quarantine) the
  crawler and pipeline use to survive a hostile web.

Quickstart::

    from repro import SubscriptionSystem

    system = SubscriptionSystem()
    system.subscribe('''
        subscription Products
        monitoring NewProduct
        select X
        from self//Product X
        where URL extends "http://www.shop.example/catalog/"
          and new X
        report when immediate
    ''', owner_email="me@example.org")
    system.feed_xml("http://www.shop.example/catalog/products.xml",
                    "<catalog><Product><name>camera</name></Product></catalog>")
"""

from .clock import SimulatedClock, WallClock
from .core import (
    AESMatcher,
    Alert,
    AtomicEventKey,
    CountingMatcher,
    EventRegistry,
    FlowPartitionedProcessor,
    MonitoringQueryProcessor,
    NaiveMatcher,
    Notification,
    SubscriptionPartitionedProcessor,
)
from .errors import ReproError
from .language import parse_subscription, validate_subscription
from .observability import MetricsRegistry, NULL_REGISTRY, NullRegistry
from .pipeline import Fetch, FeedResult, SubscriptionSystem
from .query import QueryEngine, parse_query
from .repository import Repository, SemanticClassifier
from .webworld import (
    SimulatedCrawler,
    SiteGenerator,
    SyntheticWorkload,
    WorkloadParams,
)
from .xmlstore import Document, ElementNode, TextNode, parse, serialize

__version__ = "1.0.0"

__all__ = [
    "SimulatedClock",
    "WallClock",
    "AESMatcher",
    "Alert",
    "AtomicEventKey",
    "CountingMatcher",
    "EventRegistry",
    "FlowPartitionedProcessor",
    "MonitoringQueryProcessor",
    "NaiveMatcher",
    "Notification",
    "SubscriptionPartitionedProcessor",
    "ReproError",
    "parse_subscription",
    "validate_subscription",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Fetch",
    "FeedResult",
    "SubscriptionSystem",
    "QueryEngine",
    "parse_query",
    "Repository",
    "SemanticClassifier",
    "SimulatedCrawler",
    "SiteGenerator",
    "SyntheticWorkload",
    "WorkloadParams",
    "Document",
    "ElementNode",
    "TextNode",
    "parse",
    "serialize",
    "__version__",
]
