"""The observability layer: metrics primitives, tracing, and the guarantee
that instrumentation never perturbs pipeline behavior."""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.core.events import AtomicEventKey
from repro.core.processor import Alert, MonitoringQueryProcessor
from repro.observability import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    stage_histogram,
)
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    format_bound,
    render_key,
    split_key,
)
from repro.observability.names import ALL_METRIC_NAMES, STAGE_NAMES
from repro.pipeline import Fetch, SubscriptionSystem
from repro.webworld import SiteGenerator

SOURCE = """
subscription Obs
monitoring M
select <Hit url=URL/>
where URL extends "http://watched.example/"
  and modified self
report when count >= 3
"""


class TestPrimitives:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("c") is counter  # interned
        assert counter.value == 3.5
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5.0

    def test_labelled_metrics_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("hits", shard="0").inc()
        registry.counter("hits", shard="1").inc(2)
        assert registry.counter_total("hits") == 3
        snap = registry.snapshot()
        assert snap["counters"]["hits{shard=0}"] == 1
        assert snap["counters"]["hits{shard=1}"] == 2

    def test_render_split_round_trip(self):
        key = render_key("mqp.process_alert", {"shard": "3", "mode": "flow"})
        assert key == "mqp.process_alert{mode=flow,shard=3}"
        name, labels = split_key(key)
        assert name == "mqp.process_alert"
        assert labels == {"shard": "3", "mode": "flow"}
        assert split_key("bare") == ("bare", {})

    def test_format_bound(self):
        assert format_bound(0.0005) == "0.0005"
        assert format_bound(5.0) == "5.0"
        assert format_bound(0.05) == "0.05"

    def test_histogram_bucket_placement_is_exact(self):
        histogram = Histogram(bounds=(0.001, 0.01, 0.1))
        for value in (0.0, 0.001, 0.005, 0.05, 0.5, 99.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 6
        assert snap["buckets"] == {
            "0.001": 2,   # 0.0 and exactly-0.001 (le semantics)
            "0.01": 1,    # 0.005
            "0.1": 1,     # 0.05
            "+Inf": 2,    # 0.5 and 99.0
        }
        assert snap["sum"] == pytest.approx(0.0 + 0.001 + 0.005 + 0.05
                                            + 0.5 + 99.0)

    def test_bucket_for_matches_observe(self):
        histogram = Histogram()
        for value in (0.0, 0.0007, 0.3, 10_000.0):
            histogram.observe(value)
            label = histogram.bucket_for(value)
            assert histogram.snapshot()["buckets"][label] >= 1


class TestDeterministicTracing:
    """Stage latencies over a SimulatedClock-backed registry are *exact*."""

    def test_exact_bucket_counts_under_simulated_clock(self):
        clock = SimulatedClock(100.0)
        registry = MetricsRegistry(clock)
        histogram = stage_histogram(registry, "stage.a")
        # Mid-bucket durations so float arithmetic on clock timestamps can
        # never push an observation across a bucket boundary.
        durations = (0.003, 0.0004, 2.0, 0.0)
        for duration in durations:
            start = registry.now()
            clock.advance(duration)
            histogram.observe(registry.now() - start)
        assert stage_histogram(registry, "stage.a") is histogram  # interned
        snap = histogram.snapshot()
        assert snap["count"] == len(durations)
        assert snap["sum"] == pytest.approx(sum(durations))
        expected = {format_bound(b): 0 for b in DEFAULT_LATENCY_BUCKETS}
        expected["+Inf"] = 0
        expected["0.005"] = 1   # 0.003
        expected["0.0005"] = 2  # 0.0004 and the zero-length stage
        expected["5.0"] = 1     # 2.0
        assert snap["buckets"] == expected

    def test_span_records_exact_start_end(self):
        clock = SimulatedClock(50.0)
        registry = MetricsRegistry(clock)
        histogram = stage_histogram(registry, "stage.b", shard="1")
        start = registry.now()
        clock.advance(1.5)
        end = registry.now()
        histogram.observe(end - start)
        assert (start, end) == (50.0, 51.5)
        snap = registry.snapshot()["histograms"][
            "stage.b.latency_seconds{shard=1}"
        ]
        assert (snap["count"], snap["sum"]) == (1, 1.5)

    def test_span_closes_on_exception(self):
        """A batch whose stage raises is still timed (the system closes
        its ``executor.run_batch`` stage in a ``finally``)."""
        clock = SimulatedClock()
        registry = MetricsRegistry(clock)
        system = SubscriptionSystem(clock=clock, metrics=registry)
        system.subscribe(
            "subscription Boom\nmonitoring M\nselect <Hit url=URL/>\n"
            'where URL extends "http://x.example/"\n  and modified self\n'
            "report when immediate",
            owner_email="u@x",
        )

        def boom(alert):
            clock.advance(0.25)
            raise RuntimeError("boom")

        system.processor.process_alert = boom
        with pytest.raises(RuntimeError):
            system.feed_batch([Fetch("http://x.example/a.xml", "<r/>")])
        histogram = stage_histogram(
            registry, "executor.run_batch", executor="serial"
        )
        assert histogram.count == 1
        assert histogram.snapshot()["buckets"]["0.5"] == 1


class TestNullRegistryNeutrality:
    """Observability must not perturb behavior: a no-op registry leaves
    results byte-identical to the instrumented defaults."""

    @staticmethod
    def _feed_processor(metrics):
        processor = MonitoringQueryProcessor(
            clock=SimulatedClock(1_000.0), metrics=metrics
        )
        events = [
            processor.register(
                [
                    AtomicEventKey("url_eq", f"http://s{i}/"),
                    AtomicEventKey("dtd_eq", f"d{i % 2}"),
                ]
            )
            for i in range(5)
        ]
        results = []
        for i, event in enumerate(events):
            alert = Alert(
                f"http://doc{i}/",
                sorted(event.atomic_codes),
                data={min(event.atomic_codes): f"payload-{i}"},
            )
            results.append(processor.process_alert(alert))
        return results, processor.stats

    def test_process_alert_results_byte_identical(self):
        null_results, null_stats = self._feed_processor(NULL_REGISTRY)
        live_results, live_stats = self._feed_processor(
            MetricsRegistry(SimulatedClock(1_000.0))
        )
        assert repr(null_results) == repr(live_results)
        assert null_stats.as_dict() == live_stats.as_dict()

    @staticmethod
    def _run_system(metrics):
        system = SubscriptionSystem(
            clock=SimulatedClock(1_000_000.0), metrics=metrics
        )
        system.subscribe(SOURCE, owner_email="u@x")
        transcripts = []
        for i in range(4):
            url = f"http://watched.example/p{i}.xml"
            system.feed_xml(url, "<r/>")
            system.clock.advance(30)
            result = system.feed_xml(url, "<r><x/></r>")
            transcripts.append(
                (result.outcome.status, repr(result.notifications))
            )
        system.advance_days(1)
        emails = [(m.recipient, m.body) for m in system.email_sink.sent]
        return transcripts, emails

    def test_full_pipeline_byte_identical(self):
        null_run = self._run_system(NullRegistry())
        live_run = self._run_system(None)  # default live registry
        assert null_run == live_run

    def test_null_registry_snapshot_is_empty(self):
        system = SubscriptionSystem(
            clock=SimulatedClock(1_000_000.0), metrics=NULL_REGISTRY
        )
        system.subscribe(SOURCE, owner_email="u@x")
        system.feed_xml("http://watched.example/p.xml", "<r/>")
        snapshot = system.metrics_snapshot()
        assert snapshot["documents_fed"] == 1  # plain attrs still work
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}


class TestSystemSnapshot:
    """Acceptance: a 100-document webworld stream yields per-stage counters
    and latency histograms covering every stage, with repository histogram
    totals equal to ``documents_fed``."""

    def build_system(self, shards=2):
        return SubscriptionSystem(
            clock=SimulatedClock(990_000_000.0),
            shards=shards,
            shard_mode="flow",
        )

    def feed_webworld(self, system, documents=100):
        generator = SiteGenerator(seed=11)
        urls = [
            f"http://watched.example/shop{i}/catalog.xml"
            for i in range(documents // 2)
        ]
        for url in urls:  # first crawl: all new
            system.feed_xml(url, generator.catalog(products=3))
            system.clock.advance(1.0)
        for url in urls:  # second crawl: all updated
            system.feed_xml(url, generator.catalog(products=4))
            system.clock.advance(1.0)

    def test_snapshot_covers_every_stage(self):
        system = self.build_system()
        system.subscribe(SOURCE, owner_email="u@x")
        self.feed_webworld(system)
        system.advance_days(1)
        snapshot = system.metrics_snapshot()

        assert snapshot["documents_fed"] == 100
        stages = snapshot["stages"]
        for stage in STAGE_NAMES:
            assert stage in stages, f"stage {stage} missing from snapshot"
        # Histogram totals across the repository equal documents fed.
        assert (
            stages["repository.store_xml"] + stages["repository.store_html"]
            == snapshot["documents_fed"]
        )
        assert stages["alerters.build_alert"] == snapshot["documents_fed"]
        # The second crawl updates every page: one classification each.
        assert stages["diff.classify_changes"] == snapshot["documents_fed"] // 2
        assert stages["triggers.tick"] > 0
        assert stages["reporter.tick"] > 0
        # Per-shard MQP histograms with shard labels.
        histograms = snapshot["histograms"]
        shard_keys = [
            key
            for key in histograms
            if key.startswith("mqp.process_alert.latency_seconds{shard=")
        ]
        assert len(shard_keys) == 2
        assert (
            sum(histograms[key]["count"] for key in shard_keys)
            == stages["mqp.process_alert"]
        )
        # Load distribution mirrors the per-shard alert counts.
        assert sum(snapshot["shard_load"].values()) == stages[
            "mqp.process_alert"
        ]
        assert snapshot["notifications_emitted"] == 50
        assert snapshot["gauges"]["pipeline.subscriptions"] == 1.0

    def test_latencies_deterministic_under_simulated_clock(self):
        # The registry times with the system's SimulatedClock, which never
        # advances inside a stage, so every observation is exactly 0.0 and
        # lands in the first bucket.
        system = self.build_system()
        system.subscribe(SOURCE, owner_email="u@x")
        self.feed_webworld(system, documents=20)
        snapshot = system.metrics_snapshot()
        first = format_bound(DEFAULT_LATENCY_BUCKETS[0])
        for key, payload in snapshot["histograms"].items():
            if ".latency_seconds" not in key:
                continue  # e.g. executor.batch_size counts sizes, not time
            assert payload["buckets"][first] == payload["count"], key
            assert payload["sum"] == 0.0

    def test_single_processor_gets_shard_zero_label(self):
        system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0))
        system.subscribe(SOURCE, owner_email="u@x")
        system.feed_xml("http://watched.example/p.xml", "<r/>")
        histograms = system.metrics_snapshot()["histograms"]
        assert "mqp.process_alert.latency_seconds{shard=0}" in histograms

    def test_outcome_counters_track_statuses(self):
        system = self.build_system()
        system.feed_xml("http://watched.example/a.xml", "<r/>")
        system.feed_xml("http://watched.example/a.xml", "<r/>")
        system.feed_xml("http://watched.example/a.xml", "<r><x/></r>")
        system.feed_html("http://watched.example/h", "hello")
        counters = system.metrics_snapshot()["counters"]
        assert counters["repository.outcomes{kind=xml,status=new}"] == 1
        assert counters["repository.outcomes{kind=xml,status=unchanged}"] == 1
        assert counters["repository.outcomes{kind=xml,status=updated}"] == 1
        assert counters["repository.outcomes{kind=html,status=new}"] == 1


class TestStreamRejections:
    def test_all_repro_errors_are_counted_with_reasons(self):
        system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0))
        # Same URL first stored as HTML, then fed as XML: RepositoryError.
        system.feed_html("http://confused.example/", "hello")
        stream = [
            Fetch(url="http://ok.example/a.xml", content="<r/>"),
            Fetch(url="http://bad.example/b.xml", content="<never closed"),
            Fetch(url="http://confused.example/", content="<r/>"),
        ]
        results = system.run_stream(stream)
        assert len(results) == 1
        assert system.documents_rejected == 2
        snapshot = system.metrics_snapshot()
        assert snapshot["rejections"] == {
            "XMLSyntaxError": 1,
            "RepositoryError": 1,
        }

    def test_skip_malformed_false_still_raises(self):
        from repro.errors import XMLSyntaxError

        system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0))
        with pytest.raises(XMLSyntaxError):
            system.run_stream(
                [Fetch(url="http://bad/", content="<oops")],
                skip_malformed=False,
            )
        assert system.documents_rejected == 0

    def test_rejected_documents_do_not_skew_stage_histograms(self):
        system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0))
        system.run_stream(
            [
                Fetch(url="http://ok/a.xml", content="<r/>"),
                Fetch(url="http://bad/", content="<oops"),
            ]
        )
        stages = system.metrics_snapshot()["stages"]
        assert stages["repository.store_xml"] == system.documents_fed == 1


class TestMetricNamesCatalogue:
    def test_all_names_sorted_and_unique(self):
        assert list(ALL_METRIC_NAMES) == sorted(set(ALL_METRIC_NAMES))

    def test_every_stage_has_a_latency_metric(self):
        for stage in STAGE_NAMES:
            assert f"{stage}.latency_seconds" in ALL_METRIC_NAMES
