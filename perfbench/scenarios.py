"""The benchmark's three workloads: inputs, set-up, timed loop, checks.

* ``crawl-catalog`` — 24 catalog sites of 40 products with varied
  importance, drained hourly for three simulated days, 20 subscriptions
  (``new Product contains``, ``modified self``).  The loader (parse,
  sign, diff, index) dominates.
* ``alert-match`` — the paper's Section 4.2 workload: an AES matcher with
  Card(C) = 2*10^5 complex events over Card(A) = 10^5 (c in [2, 4],
  s = 20, uniform draws), fed ``biased_document_sets`` alerts with 30%
  engineered hits through ``MonitoringQueryProcessor.process_alert``.
  Only the MQP runs.
* ``churn-fanout`` — 90 small catalog sites drained hourly for 36 hours,
  300 two-query subscriptions on URL prefixes, two subscriptions swapped
  every hour, crash recovery on.  Routing, reporting, subscription
  management and the journal run beside the loader.

Every input (pages, their evolution, subscriptions, event sets) is made
from the seed before timing starts; the program receives only the
generated fetches, subscription texts and alerts.  Each stream is run by
a freshly built system again and again until the measured time is used
up (closed loop: each tick's fetches go in when the previous tick is
done), and every repetition must produce the same output.  Outputs are
checked against a reference run outside the timed region: the naive
matcher fed one document at a time for the stream workloads,
``CountingMatcher`` for alert-match.  Times are scaled to a fixed host
speed (``probe.py``).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import resource
import shutil
import statistics
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import SimulatedClock
from repro.core import (
    AESMatcher,
    Alert,
    CountingMatcher,
    MonitoringQueryProcessor,
    NaiveMatcher,
)
from repro.errors import ResourceLimitError
from repro.pipeline import Fetch, SubscriptionSystem
from repro.webworld import (
    ChangeModel,
    SimulatedCrawler,
    SiteGenerator,
    SyntheticWorkload,
    WorkloadParams,
    biased_document_sets,
)
from repro.xmlstore import parse, serialize

from probe import SpeedProbe
from spans import SpanRecorder

START = 990_000_000.0
HOUR = 3600.0

#: Refresh importance cycled over the sites: pages are due every 24h/i.
IMPORTANCE = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

#: Workload sizes.  ``tiny`` keeps the same shape at smoke-test scale.
#: ``setups`` is the number of systems built per run of the stream (the
#: last one runs it) and, for alert-match, the number of processors built
#: over the measured time.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "crawl-catalog": dict(sites=24, products=40, hours=72, setups=3),
        "alert-match": dict(
            card_a=100_000, card_c=200_000, alerts=50_000, setups=3
        ),
        "churn-fanout": dict(
            sites=90, products=4, subscriptions=300, hours=36, swaps=2,
            checkpoint_every=4, setups=2,
        ),
    },
    "tiny": {
        "crawl-catalog": dict(sites=4, products=5, hours=12, setups=2),
        "alert-match": dict(card_a=2_000, card_c=4_000, alerts=2_000, setups=2),
        "churn-fanout": dict(
            sites=6, products=2, subscriptions=12, hours=8, swaps=1,
            checkpoint_every=2, setups=2,
        ),
    },
}

CRAWL_WORDS = (
    "camera", "hi-fi", "computer", "phone", "book",
    "music", "garden", "lens", "zoom", "battery",
)


# -- results ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one benchmark run reports."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[Optional[float], str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append(f"CHECK FAILED: {message}")


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_sum(snapshot: Dict[str, Any], name: str) -> int:
    """Total of a labelled counter family in ``metrics_snapshot()``."""
    total = 0
    for key, value in snapshot["counters"].items():
        if key == name or key.startswith(name + "{"):
            total += int(value)
    return total


def counter_where(snapshot: Dict[str, Any], name: str, label: str) -> int:
    return sum(
        int(value)
        for key, value in snapshot["counters"].items()
        if key.startswith(name + "{") and label in key
    )


def canonical_reports(reports: List[Tuple[int, str]]) -> List[Tuple[int, List[str]]]:
    """Reports with their notifications sorted: matchers may list one
    document's matches in any order, and a report keeps arrival order."""
    return sorted(
        (subscription_id, sorted(serialize(child) for child in parse(body).root.children))
        for subscription_id, body in reports
    )


def _digest(payload: Any) -> str:
    return hashlib.sha1(repr(payload).encode("utf-8")).hexdigest()


# -- span layers ---------------------------------------------------------------

L_SETUP = "bench.setup"
L_STREAM = "pipeline.stream"
L_BATCH = "pipeline.batch"
L_STORE = "repository.store"
L_PARSE = "xmlstore.parse"
L_SIGN = "diff.signature"
L_DELTA = "diff.delta"
L_INDEX = "repository.index"
L_CLASSIFY = "diff.classify"
L_ALERT = "alerters.build"
L_MATCH = "core.match"
L_ROUTE = "subscription.route"
L_DELIVER = "reporting.deliver"
L_HOOK = "recovery.hook"
L_APPEND = "recovery.append"
L_CHECKPOINT = "recovery.checkpoint"
L_SUB = "subscription.subscribe"
L_UNSUB = "subscription.unsubscribe"
L_LANG = "language.parse"
L_INSERT = "minisql.insert"
L_RTICK = "reporting.tick"
L_TTICK = "triggers.tick"
L_ADVANCE = "clock.advance"

#: Module-level functions timed at the module that calls them.
MODULE_SPANS = (
    ("repro.repository.store", "parse", L_PARSE),
    ("repro.repository.store", "document_signature", L_SIGN),
    ("repro.repository.store", "compute_delta", L_DELTA),
    ("repro.pipeline.stages", "classify_changes", L_CLASSIFY),
    ("repro.subscription.manager", "parse_subscription", L_LANG),
)


def _attr_path(root: Any, path: str) -> Any:
    """``root.a.b`` or None when some step no longer exists."""
    for name in path.split("."):
        root = getattr(root, name, None)
        if root is None:
            return None
    return root


def wrap_modules(recorder: SpanRecorder) -> None:
    for module_name, attr, layer in MODULE_SPANS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        recorder.wrap(module, attr, layer)


class MQPCounts:
    """Alerts, notifications and hits seen at ``process_alert``."""

    def __init__(self) -> None:
        self.alerts = 0
        self.notifications = 0
        self.hits = 0

    def __call__(self, notifications: List[Any]) -> None:
        self.alerts += 1
        self.notifications += len(notifications)
        self.hits += bool(notifications)


def wrap_processor(recorder: SpanRecorder, processor: Any, counts: MQPCounts) -> None:
    recorder.wrap(processor, "process_alert", L_MATCH, on_result=counts)
    recorder.wrap(processor, "dispatch", L_ROUTE)


def wrap_system(recorder: SpanRecorder, system: Any, counts: MQPCounts) -> None:
    """Spans on a freshly built system, before any subscription."""
    for path, attr, layer in (
        ("", "run_stream", L_STREAM),
        ("", "feed_batch", L_BATCH),
        ("", "subscribe", L_SUB),
        ("", "unsubscribe", L_UNSUB),
        ("", "advance_time", L_ADVANCE),
        ("repository", "store_xml", L_STORE),
        ("repository.indexes", "index_document", L_INDEX),
        ("alerter_chain", "build_alert", L_ALERT),
        ("reporter", "deliver", L_DELIVER),
        ("reporter", "tick", L_RTICK),
        ("trigger_engine", "tick", L_TTICK),
    ):
        owner = _attr_path(system, path) if path else system
        recorder.wrap(owner, attr, layer)
    wrap_processor(recorder, _attr_path(system, "processor"), counts)
    database = _attr_path(system, "manager.database")
    table = None
    if database is not None and hasattr(database, "table"):
        table = database.table("subscriptions")
    recorder.wrap(table, "insert", L_INSERT)


def wrap_recovery(recorder: SpanRecorder, system: Any) -> None:
    """Spans on the attached recovery manager (after ``enable_recovery``)."""
    recorder.wrap(_attr_path(system, "reporter"), "delivery_hook", L_HOOK)
    recorder.wrap(_attr_path(system, "recovery.journal"), "append_delivery", L_APPEND)
    recorder.wrap(_attr_path(system, "recovery"), "checkpoint", L_CHECKPOINT)


# -- per-layer metrics -----------------------------------------------------------


@dataclass
class LayerCounts:
    """Work counts of a traced phase, for per-unit layer times."""

    docs: int = 0
    xml_docs: int = 0
    updated: int = 0
    unchanged: int = 0
    ticks: int = 0
    alerts_built: int = 0
    reports: int = 0
    backpressure_waits: int = 0
    checkpoints: int = 0
    journal_bytes: int = 0
    rejected_subscriptions: int = 0


def layer_metrics(
    recorder: SpanRecorder,
    counts: LayerCounts,
    mqp: MQPCounts,
    wall: float,
    overhead_ratio: float,
    speed: float,
) -> Dict[str, Tuple[Optional[float], str]]:
    """Every per-layer metric; None where a wrapped layer is missing.
    Layer times are scaled by ``speed``, the traced phase's median host
    speed factor (``probe.py``); ``wall`` is in plain seconds."""

    def per(layer: str, units: float, scale: float = 1.0) -> Optional[float]:
        if layer in recorder.missing:
            return None
        return recorder.self_us(layer) * speed * scale / units if units else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    calls = recorder.calls
    batch_self = per(L_BATCH, counts.docs)
    if any(
        layer in recorder.missing for layer in (L_STORE, L_CLASSIFY, L_ALERT, L_MATCH)
    ):
        # The batch's self time would absorb the unmeasured stage.
        batch_self = None
    return {
        "xmlstore.parse_us_per_doc": (per(L_PARSE, counts.xml_docs), "us"),
        "diff.signature_us_per_doc": (per(L_SIGN, counts.xml_docs), "us"),
        "diff.delta_us_per_updated_doc": (per(L_DELTA, counts.updated), "us"),
        "diff.classify_us_per_updated_doc": (per(L_CLASSIFY, counts.updated), "us"),
        "repository.store_self_us_per_doc": (per(L_STORE, counts.xml_docs), "us"),
        "repository.index_us_per_doc": (per(L_INDEX, counts.xml_docs), "us"),
        "repository.unchanged_ratio": (
            ratio(counts.unchanged, counts.xml_docs), "fraction"
        ),
        "alerters.build_us_per_doc": (per(L_ALERT, counts.docs), "us"),
        "alerters.alert_ratio": (ratio(counts.alerts_built, counts.docs), "fraction"),
        "core.match_us_per_alert": (per(L_MATCH, mqp.alerts), "us"),
        "core.notifications_per_alert": (
            ratio(mqp.notifications, mqp.alerts), "count/alert"
        ),
        "core.hit_ratio": (ratio(mqp.hits, mqp.alerts), "fraction"),
        "subscription.route_us_per_notification": (
            per(L_ROUTE, mqp.notifications), "us"
        ),
        "subscription.subscribe_us": (per(L_SUB, calls(L_SUB)), "us"),
        "subscription.unsubscribe_us": (per(L_UNSUB, calls(L_UNSUB)), "us"),
        "subscription.rejected": (float(counts.rejected_subscriptions), "count"),
        "language.parse_us_per_subscription": (per(L_LANG, calls(L_LANG)), "us"),
        "minisql.insert_us_per_subscription": (
            per(L_INSERT, calls(L_INSERT)), "us"
        ),
        "reporting.deliver_us": (per(L_DELIVER, calls(L_DELIVER)), "us"),
        "reporting.tick_us": (per(L_RTICK, calls(L_RTICK)), "us"),
        "reporting.reports": (float(counts.reports), "count"),
        "triggers.tick_us": (per(L_TTICK, calls(L_TTICK)), "us"),
        "pipeline.batch_self_us_per_doc": (batch_self, "us"),
        "pipeline.stream_self_us_per_tick": (per(L_STREAM, counts.ticks), "us"),
        "pipeline.backpressure_waits": (float(counts.backpressure_waits), "count"),
        "recovery.hook_us_per_delivery": (per(L_HOOK, calls(L_HOOK)), "us"),
        "recovery.append_us_per_delivery": (per(L_APPEND, calls(L_APPEND)), "us"),
        "recovery.checkpoint_ms": (
            per(L_CHECKPOINT, calls(L_CHECKPOINT), scale=1e-3), "ms"
        ),
        "recovery.checkpoints": (float(counts.checkpoints), "count"),
        "recovery.journal_bytes": (float(counts.journal_bytes), "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.unattributed_share": (
            1.0 - ratio(recorder.attributed_seconds(), wall), "fraction"
        ),
    }


# -- stream workloads (crawl-catalog, churn-fanout) --------------------------------


@dataclass
class StreamWorld:
    """A generated stream: fetches per hourly tick plus subscriptions."""

    ticks: List[List[Fetch]]
    initial: List[str]
    #: Per tick: sources subscribed after unsubscribing as many oldest ones.
    swaps: List[List[str]]
    checkpoint_every: Optional[int] = None  # None: recovery off


def crawl_ticks(
    seed: int, sites: int, products: int, hours: int, url_format: str
) -> List[List[Fetch]]:
    """Drain a seeded crawl hourly; the crawler keeps its own clock."""
    clock = SimulatedClock(START)
    generator = SiteGenerator(seed=seed)
    crawler = SimulatedCrawler(
        clock=clock, change_model=ChangeModel(seed=seed + 1), seed=seed + 2
    )
    for site in range(sites):
        crawler.add_xml_page(
            url_format.format(site),
            generator.catalog(products=products),
            importance=IMPORTANCE[site % len(IMPORTANCE)],
            change_probability=0.7,
        )
    ticks = []
    for _ in range(hours):
        ticks.append(list(crawler.due_fetches()))
        clock.advance(HOUR)
    return ticks


def crawl_catalog_world(seed: int, size: Dict[str, Any]) -> StreamWorld:
    ticks = crawl_ticks(
        seed, size["sites"], size["products"], size["hours"],
        "http://www.shop{}.example/catalog/products.xml",
    )
    initial = [
        f"subscription New{index}\n"
        "monitoring NewProduct\n"
        "select X\n"
        "from self//Product X\n"
        'where URL extends "http://www.shop"\n'
        f'  and new Product contains "{word}"\n'
        "report when count >= 10\n"
        for index, word in enumerate(CRAWL_WORDS)
    ] + [
        f"subscription Updated{index}\n"
        "monitoring UpdatedPage\n"
        "select <UpdatedPage url=URL/>\n"
        f'where URL extends "http://www.shop{index}"\n'
        "  and modified self\n"
        "report when count >= 20\n"
        for index in range(10)
    ]
    return StreamWorld(ticks=ticks, initial=initial, swaps=[[] for _ in ticks])


def churn_source(number: int, sites: int) -> str:
    """Two queries on one site's URL prefix, reported per delivery.

    A report is cut as soon as its count is reached, so with a count above
    one its contents depend on the order in which the matcher lists one
    document's matches, and that order differs between AES and the naive
    reference.  ``count >= 1`` keeps reports comparable.
    """
    prefix = f"http://www.site{number % sites}.example/"
    return (
        f"subscription Churn{number}\n"
        "monitoring Changed\n"
        "select <Changed url=URL/>\n"
        f'where URL extends "{prefix}"\n'
        "  and modified self\n"
        "monitoring Added\n"
        "select X\n"
        "from self//Product X\n"
        f'where URL extends "{prefix}"\n'
        "  and new Product\n"
        "report when count >= 1\n"
    )


def churn_fanout_world(seed: int, size: Dict[str, Any]) -> StreamWorld:
    sites = size["sites"]
    ticks = crawl_ticks(
        seed, sites, size["products"], size["hours"],
        "http://www.site{}.example/catalog.xml",
    )
    count = size["subscriptions"]
    swaps = size["swaps"]
    return StreamWorld(
        ticks=ticks,
        initial=[churn_source(number, sites) for number in range(count)],
        swaps=[
            [
                churn_source(count + tick * swaps + slot, sites)
                for slot in range(swaps)
            ]
            for tick in range(len(ticks))
        ],
        checkpoint_every=size["checkpoint_every"],
    )


@dataclass
class Episode:
    """One freshly built system driven through all of the world's ticks."""

    system: Any
    ids: deque
    journal: Optional[str]
    reports: List[Tuple[int, str]] = field(default_factory=list)
    returns: List[Tuple[float, int]] = field(default_factory=list)
    #: Times are in reference seconds (see ``probe.py``); ``*_wall`` are
    #: the same intervals in plain seconds.
    setup_seconds: float = 0.0
    setup_wall: float = 0.0
    #: Subscription calls made by set-up, and by the ticks' swaps.
    setup_sub_ops: int = 0
    setup_sub_seconds: float = 0.0
    sub_ops: int = 0
    sub_seconds: float = 0.0
    refused: int = 0
    busy: float = 0.0
    wall: float = 0.0
    docs: int = 0
    latencies_us: List[float] = field(default_factory=list)
    tick_digests: List[str] = field(default_factory=list)


def sub_rate(group: List[Episode]) -> float:
    """Subscription calls per second over one episode and the set-ups
    made before it: the same mix of calls in every sample."""
    ops = sum(e.setup_sub_ops + e.sub_ops for e in group)
    return ops / sum(e.setup_sub_seconds + e.sub_seconds for e in group)


class StreamBench:
    """Builds systems for a world and drives them through its ticks."""

    def __init__(self, world: StreamWorld, workdir: str):
        self.world = world
        self.workdir = workdir
        self.probe = SpeedProbe()
        self._journals = 0
        #: Per-layer work counts, filled while a recorder is attached.
        self.layer_counts = LayerCounts()

    # -- set-up ----------------------------------------------------------------

    def build(
        self,
        matcher_factory: Callable = AESMatcher,
        recovery: bool = True,
        recorder: Optional[SpanRecorder] = None,
        mqp: Optional[MQPCounts] = None,
    ) -> Episode:
        """Build a system, register the initial subscriptions, attach the
        journal.  Only this counts as set-up time."""
        journal = None
        if recovery and self.world.checkpoint_every is not None:
            self._journals += 1
            journal = os.path.join(self.workdir, f"run{self._journals}.journal")
        gc.collect()
        factor = self.probe.factor()
        region = recorder.region(L_SETUP) if recorder is not None else nullcontext()
        with region:
            start = time.perf_counter()
            system = SubscriptionSystem(
                clock=SimulatedClock(START), matcher_factory=matcher_factory
            )
            episode = Episode(system=system, ids=deque(), journal=journal)
            self._observe(episode)
            if recorder is not None:
                wrap_system(recorder, system, mqp)
            for source in self.world.initial:
                seconds = self._subscribe(episode, source)
                episode.setup_sub_ops += 1
                episode.setup_sub_seconds += seconds * factor
            if journal is not None:
                system.enable_recovery(
                    journal, checkpoint_every=self.world.checkpoint_every
                )
                if recorder is not None:
                    wrap_recovery(recorder, system)
            episode.setup_wall = time.perf_counter() - start
        episode.setup_seconds = episode.setup_wall * factor
        return episode

    @staticmethod
    def _observe(episode: Episode) -> None:
        """Record when each ``feed_batch`` returns, and every report."""
        system = episode.system
        feed_batch = system.feed_batch
        publish = system.publisher.publish

        def timed_feed_batch(fetches, skip_malformed=True):
            results = feed_batch(fetches, skip_malformed=skip_malformed)
            episode.returns.append((time.perf_counter(), len(fetches)))
            return results

        def recorded_publish(subscription_id, body):
            episode.reports.append((subscription_id, body))
            return publish(subscription_id, body)

        system.feed_batch = timed_feed_batch
        system.publisher.publish = recorded_publish

    @staticmethod
    def _subscribe(episode: Episode, source: str) -> float:
        start = time.perf_counter()
        try:
            episode.ids.append(
                episode.system.subscribe(source, owner_email="bench@example.org")
            )
        except ResourceLimitError:
            episode.refused += 1
        return time.perf_counter() - start

    @staticmethod
    def close(episode: Episode) -> int:
        """Release the journal; returns its size in bytes on disk."""
        if episode.journal is None:
            return 0
        episode.system.recovery.close()
        size = 0
        for path in (episode.journal, episode.journal + ".snapshot"):
            if os.path.exists(path):
                size += os.path.getsize(path)
                os.remove(path)
        return size

    # -- timed ticks -------------------------------------------------------------

    def tick(self, episode: Episode, index: int) -> None:
        """One hourly tick: swap subscriptions, ingest, advance the clock."""
        system = episode.system
        fetches = self.world.ticks[index]
        episode.returns.clear()
        factor = self.probe.factor()
        start = time.perf_counter()
        for source in self.world.swaps[index]:
            unsubscribe_start = time.perf_counter()
            system.unsubscribe(episode.ids.popleft())
            seconds = time.perf_counter() - unsubscribe_start
            seconds += self._subscribe(episode, source)
            episode.sub_seconds += seconds * factor
            episode.sub_ops += 2
        handed = time.perf_counter()
        results = system.run_stream(fetches)
        system.advance_time(HOUR)
        wall = time.perf_counter() - start
        episode.wall += wall
        episode.busy += wall * factor
        for returned, size in episode.returns:
            episode.latencies_us.extend([(returned - handed) * factor * 1e6] * size)
        episode.docs += len(fetches)
        notifications = sorted(
            (notification.document_url, notification.complex_code)
            for result in results
            for notification in result.notifications
        )
        episode.tick_digests.append(
            _digest((notifications, canonical_reports(episode.reports)))
        )
        episode.reports.clear()

    def episodes(
        self,
        seconds: float,
        outcome: Outcome,
        recorder: Optional[SpanRecorder] = None,
        mqp: Optional[MQPCounts] = None,
        extra_setups: int = 0,
    ) -> List[List[Episode]]:
        """Whole episodes until ``seconds`` of tick time are measured
        (set-up time too, when traced).  Before each, ``extra_setups``
        systems are built and dropped, so set-up samples spread over the
        run.  Returns, per episode, those set-ups followed by the episode."""
        groups: List[List[Episode]] = []
        measured = 0.0
        while measured < seconds:
            group = []
            for _ in range(extra_setups):
                extra = self.build()
                self.close(extra)
                outcome.attempted += extra.setup_sub_ops
                outcome.failed += extra.refused
                group.append(extra)
            episode = self.build(recorder=recorder, mqp=mqp)
            group.append(episode)
            groups.append(group)
            for index in range(len(self.world.ticks)):
                self.tick(episode, index)
            self.finish(episode, outcome, traced=recorder is not None)
            measured += episode.wall
            if recorder is not None:
                measured += episode.setup_wall
        return groups

    def finish(self, episode: Episode, outcome: Outcome, traced: bool) -> None:
        """Reconcile counts and release the episode's system and journal."""
        system = episode.system
        snapshot = system.metrics_snapshot()
        outcomes = counter_sum(snapshot, "repository.outcomes")
        if not outcomes == system.documents_fed == episode.docs:
            outcome.fail(
                f"repository.outcomes {outcomes}, documents_fed"
                f" {system.documents_fed} and generated fetches"
                f" {episode.docs} disagree"
            )
        outcome.failed += system.documents_rejected + episode.refused
        outcome.attempted += episode.docs + episode.setup_sub_ops + episode.sub_ops
        journal_bytes = self.close(episode)
        episode.system = None
        if traced:
            counts = self.layer_counts
            counts.docs += system.documents_fed
            counts.xml_docs += counter_where(snapshot, "repository.outcomes", "kind=xml")
            counts.updated += counter_where(
                snapshot, "repository.outcomes", "status=updated"
            )
            counts.unchanged += counter_where(
                snapshot, "repository.outcomes", "status=unchanged"
            )
            counts.ticks += len(episode.tick_digests)
            counts.alerts_built += counter_sum(snapshot, "alerters.alerts_built")
            counts.reports += counter_sum(snapshot, "reporter.reports")
            counts.backpressure_waits += counter_sum(
                snapshot, "ingest.backpressure_waits"
            )
            counts.checkpoints += counter_sum(snapshot, "recovery.checkpoints")
            counts.journal_bytes = journal_bytes
            counts.rejected_subscriptions += episode.refused

    # -- reference ---------------------------------------------------------------

    def reference_digests(self) -> List[str]:
        """Per-tick digests of the naive matcher fed one page at a time."""
        episode = self.build(matcher_factory=NaiveMatcher, recovery=False)
        system = episode.system
        digests = []
        for index, fetches in enumerate(self.world.ticks):
            for source in self.world.swaps[index]:
                system.unsubscribe(episode.ids.popleft())
                self._subscribe(episode, source)
            notifications = []
            for fetch in fetches:
                result = system.feed(fetch)
                notifications.extend(
                    (notification.document_url, notification.complex_code)
                    for notification in result.notifications
                )
            system.advance_time(HOUR)
            reports = canonical_reports(episode.reports)
            episode.reports.clear()
            digests.append(_digest((sorted(notifications), reports)))
        return digests


def run_stream_workload(
    world: StreamWorld, seconds: float, trace: bool, workdir: str, setups: int
) -> Outcome:
    outcome = Outcome()
    bench = StreamBench(world, workdir)
    groups = bench.episodes(seconds, outcome, extra_setups=setups - 1)
    plain = [group[-1] for group in groups]
    built = [episode for group in groups for episode in group]
    rss = peak_rss_mb()
    recorder = SpanRecorder()
    mqp = MQPCounts()
    traced: List[Episode] = []
    first_traced_factor = len(bench.probe.factors)
    if trace:
        wrap_modules(recorder)
        try:
            traced = [
                group[-1]
                for group in bench.episodes(seconds, outcome, recorder=recorder, mqp=mqp)
            ]
        finally:
            recorder.restore()

    reference = bench.reference_digests()
    if any(episode.tick_digests != reference for episode in plain + traced):
        outcome.fail("notifications or reports differ from the reference")
    if world.checkpoint_every is not None:
        outcome.notes.append(f"recovery journal under {workdir}")
    outcome.notes.append(
        f"output digest {_digest(reference)[:16]} over {len(reference)} ticks,"
        f" {len(plain) + len(traced)} runs of them"
    )
    outcome.notes.append(
        f"failed {outcome.failed} of {outcome.attempted} operations"
        f" (refused subscriptions, rejected documents):"
        f" error_rate {outcome.failed / outcome.attempted:.6f}"
    )
    docs_per_s = statistics.median(e.docs / e.busy for e in plain)
    if trace:
        wall = sum(e.wall + e.setup_wall for e in traced)
        traced_rate = statistics.median(e.docs / e.busy for e in traced)
        outcome.metrics = layer_metrics(
            recorder, bench.layer_counts, mqp, wall=wall,
            overhead_ratio=traced_rate / docs_per_s,
            speed=statistics.median(bench.probe.factors[first_traced_factor:]),
        )
    else:
        # The stream repeats per run; a document's latency is the median
        # of its repetitions.
        latencies = [
            statistics.median(repeats)
            for repeats in zip(*(e.latencies_us for e in plain))
        ]
        outcome.metrics = {
            "docs_per_s": (docs_per_s, "docs/s"),
            "doc_latency_p50_us": (percentile(latencies, 0.50), "us"),
            "doc_latency_p99_us": (percentile(latencies, 0.99), "us"),
            "sub_ops_per_s": (
                statistics.median(sub_rate(group) for group in groups), "ops/s"
            ),
            "setup_s": (statistics.median(e.setup_seconds for e in built), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        outcome.notes.append(
            f"{sum(e.docs for e in plain)} docs in"
            f" {sum(e.wall for e in plain):.2f} s over {len(plain)} runs"
            f" ({', '.join(f'{e.docs / e.wall:.1f}' for e in plain)} docs/s"
            f" in plain seconds), raw median"
            f" {statistics.median(e.docs / e.wall for e in plain):.2f} docs/s,"
            f" {len(latencies)} latency samples, {len(built)} set-ups"
        )
    return outcome


# -- alert-match -------------------------------------------------------------------

#: Alerts timed between two rounds of output bookkeeping.
ALERT_CHUNK = 2048
#: Complex events registered between two host-speed probes.
LOAD_SLICE = 10_000


def run_alert_match(
    seed: int, seconds: float, trace: bool, size: Dict[str, Any]
) -> Outcome:
    outcome = Outcome()
    workload = SyntheticWorkload(
        WorkloadParams(
            card_a=size["card_a"], card_c=size["card_c"],
            c_min=2, c_max=4, s=20, seed=seed,
        )
    )
    events = workload.complex_events()
    alerts = [
        Alert(document_url=f"http://doc{index}.example/", event_codes=codes)
        for index, codes in enumerate(
            biased_document_sets(workload, size["alerts"], 0.3, seed=seed + 1)
        )
    ]

    first_pass: List[Optional[Tuple[int, ...]]] = [None] * len(alerts)
    probe = SpeedProbe(memory_bound=True)
    raw_rates: List[float] = []

    def timed_alerts(
        processor: Any,
        position: int,
        budget: float,
        latencies: Optional[List[float]],
    ) -> Tuple[int, float, List[float]]:
        """Feed alerts round-robin from ``position`` for ``budget``
        seconds; check repeats.  Returns the next position, the seconds
        taken and the rate of each chunk, in reference seconds."""
        process = processor.process_alert
        clock = time.perf_counter
        busy = 0.0
        rates = []
        while busy < budget:
            chunk = []
            factor = probe.factor()
            chunk_start = clock()
            for offset in range(ALERT_CHUNK):
                alert = alerts[(position + offset) % len(alerts)]
                start = clock()
                chunk.append(process(alert))
                if latencies is not None:
                    latencies.append((clock() - start) * factor * 1e6)
            elapsed = clock() - chunk_start
            busy += elapsed
            rates.append(ALERT_CHUNK / (elapsed * factor))
            raw_rates.append(ALERT_CHUNK / elapsed)
            for offset, notifications in enumerate(chunk):
                index = (position + offset) % len(alerts)
                url = alerts[index].document_url
                if any(n.document_url != url for n in notifications):
                    outcome.fail(f"notification for alert {index} names another URL")
                codes = tuple(sorted(n.complex_code for n in notifications))
                if first_pass[index] is None:
                    first_pass[index] = codes
                elif first_pass[index] != codes:
                    outcome.fail(f"alert {index} matched differently when repeated")
            position += ALERT_CHUNK
        return position, busy, rates

    # Each set-up builds a fresh processor that then serves its share of
    # the measured time, so set-up samples spread over the run.
    setup_samples: List[float] = []
    latencies: List[float] = []
    rates: List[float] = []
    processed = 0
    busy = 0.0
    processor = None
    for _ in range(size["setups"]):
        processor = None
        gc.collect()
        factor = probe.factor()
        start = time.perf_counter()
        processor = MonitoringQueryProcessor(matcher_factory=AESMatcher)
        setup = (time.perf_counter() - start) * factor
        # Loaded in slices, each scaled by the host speed of its moment:
        # one load takes over a second, longer than the host holds still.
        add = processor.matcher.add
        for first in range(0, len(events), LOAD_SLICE):
            factor = probe.factor()
            start = time.perf_counter()
            for code, atomic_codes in events[first : first + LOAD_SLICE]:
                add(code, atomic_codes)
            setup += (time.perf_counter() - start) * factor
        setup_samples.append(setup)
        processed, taken, segment_rates = timed_alerts(
            processor, processed, seconds / size["setups"], latencies
        )
        busy += taken
        rates.extend(segment_rates)
    rss = peak_rss_mb()
    outcome.attempted = processed
    recorder = SpanRecorder()
    mqp = MQPCounts()
    first_traced_factor = len(probe.factors)
    if trace:
        wrap_processor(recorder, processor, mqp)
        traced_end, traced_busy, traced_rates = timed_alerts(
            processor, processed, seconds, None
        )
        outcome.attempted += traced_end - processed
    processor = None
    gc.collect()

    reference = workload.build(CountingMatcher)
    checked = 0
    matched = []
    for index, codes in enumerate(first_pass):
        if codes is None:
            continue
        expected = tuple(sorted(reference.match(alerts[index].event_codes)))
        checked += 1
        if codes != expected:
            outcome.fail(f"alert {index}: AES {codes} but counting {expected}")
            break
        matched.extend((alerts[index].document_url, code) for code in codes)
    outcome.notes.append(
        f"output digest {_digest(sorted(matched))[:16]} over {checked} distinct"
        f" alerts; Card(C)={len(events)}, observed k={workload.observed_k():.2f}"
    )
    rate = statistics.median(rates)
    if trace:
        outcome.metrics = layer_metrics(
            recorder, LayerCounts(), mqp, wall=traced_busy,
            overhead_ratio=statistics.median(traced_rates) / rate,
            speed=statistics.median(probe.factors[first_traced_factor:]),
        )
    else:
        outcome.metrics = {
            "docs_per_s": (rate, "docs/s"),
            "doc_latency_p50_us": (percentile(latencies, 0.50), "us"),
            "doc_latency_p99_us": (percentile(latencies, 0.99), "us"),
            "sub_ops_per_s": (
                statistics.median(len(events) / sample for sample in setup_samples),
                "ops/s",
            ),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    outcome.notes.append(
        f"{processed} alerts in {busy:.2f} s measured, raw median"
        f" {statistics.median(raw_rates[:len(rates)]):.0f} alerts/s,"
        f" {len(setup_samples)} set-ups"
    )
    return outcome


# -- entry point -------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    scale: str = "full",
) -> Outcome:
    size = SIZES[scale][name]
    if name == "alert-match":
        return run_alert_match(seed, seconds, trace, size)
    world = (
        crawl_catalog_world(seed, size)
        if name == "crawl-catalog"
        else churn_fanout_world(seed, size)
    )
    os.makedirs(workdir, exist_ok=True)
    try:
        return run_stream_workload(world, seconds, trace, workdir, size["setups"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
