"""The ingest API: batch settings, bounded queue, facade, front-end.

Pins the public-surface promises of the ingest layer:

* ``batch_size`` / ``queue_bound`` default to 32 / 2x the batch size,
  keyword arguments override them, and impossible bounds are rejected;
* ``run_stream`` routes through the bounded queue — ``executor.queue_depth``
  can genuinely saturate (peak <= bound, backpressure counted) while a
  rejected page is still counted and skipped;
* ``repro.api`` is the stable facade;
* the asyncio fetch front-end drains a crawler concurrently into the
  same queue.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.clock import SECONDS_PER_DAY, SimulatedClock
from repro.errors import PipelineError, XMLSyntaxError
from repro.pipeline import (
    BoundedFetchQueue,
    Fetch,
    IngestSession,
    SubscriptionSystem,
    from_pairs,
)

SOURCE = """
subscription Ingest
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when immediate
"""


def build_system(**kwargs):
    system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0), **kwargs)
    system.subscribe(SOURCE, owner_email="u@x")
    return system


def xml_pages(count):
    return [
        (
            f"http://www.shop.example/{i}.xml",
            f"<catalog><Product>camera v{i}</Product></catalog>",
        )
        for i in range(count)
    ]


class TestPrecedence:
    """kwarg > default."""

    def test_kwargs_override_defaults(self):
        system = SubscriptionSystem(
            clock=SimulatedClock(0.0), batch_size=8, queue_bound=24
        )
        assert system.batch_size == 8
        assert system.queue_bound == 24

    def test_defaults(self):
        system = SubscriptionSystem(clock=SimulatedClock(0.0))
        assert system.batch_size == 32
        assert system.queue_bound == 64

    def test_queue_bound_below_batch_size_rejected(self):
        with pytest.raises(PipelineError):
            SubscriptionSystem(
                clock=SimulatedClock(0.0), batch_size=32, queue_bound=8
            )


class TestBoundedFetchQueue:
    def test_put_blocks_at_bound_and_counts_waits(self):
        queue = BoundedFetchQueue(4)
        for i in range(4):
            queue.put(Fetch(f"http://x/{i}.xml", "<r/>"))
        blocked = threading.Event()

        def producer():
            blocked.set()
            queue.put(Fetch("http://x/overflow.xml", "<r/>"))

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        blocked.wait()
        time.sleep(0.05)
        assert len(queue) == 4  # the fifth put is parked
        assert queue.next_batch(2) is not None
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert queue.backpressure_waits == 1
        assert queue.peak_depth <= queue.bound

    def test_failure_after_full_batches(self):
        queue = BoundedFetchQueue(8)
        for i in range(5):
            queue.put(Fetch(f"http://x/{i}.xml", "<r/>"))
        queue.fail(XMLSyntaxError("stream died"))
        assert len(queue.next_batch(4)) == 4  # full batch still served
        with pytest.raises(XMLSyntaxError):
            queue.next_batch(4)  # partial tail discarded, error raised

    def test_close_yields_final_partial_then_none(self):
        queue = BoundedFetchQueue(8)
        for i in range(5):
            queue.put(Fetch(f"http://x/{i}.xml", "<r/>"))
        queue.close()
        assert len(queue.next_batch(4)) == 4
        assert len(queue.next_batch(4)) == 1
        assert queue.next_batch(4) is None

    def test_close_after_fail_is_a_no_op(self):
        """The feeder thread closes the queue in its normal epilogue; if
        the stream already failed, that close must not raise."""
        queue = BoundedFetchQueue(8)
        queue.put(Fetch("http://x/0.xml", "<r/>"))
        queue.fail(XMLSyntaxError("stream died"))
        queue.close()  # must not be a PipelineError
        with pytest.raises(XMLSyntaxError):
            queue.next_batch(4)


class TestRunStreamThroughQueue:
    def test_queue_depth_saturates_at_bound(self):
        system = build_system(batch_size=4, queue_bound=8)
        slow = iter(xml_pages(40))

        def stream():
            for url, content in slow:
                yield Fetch(url, content)

        results = system.run_stream(stream())
        assert len(results) == 40
        gauge = system.metrics_snapshot()["gauges"]["executor.queue_depth"]
        assert gauge == 0  # drained at the end
        # The ingest report is exposed via IngestSession; re-run through
        # one to read the peak.
        session = IngestSession(system, batch_size=4, queue_bound=8)
        session.run(from_pairs(xml_pages(40)))
        report = session.last_report
        assert report.documents == 40
        assert report.batches == 10
        assert 0 < report.peak_queue_depth <= 8

    def test_backpressure_fires_when_executor_is_slow(self):
        system = build_system(batch_size=2, queue_bound=2)
        original = system.feed_batch

        def slow_feed_batch(batch, skip_malformed=True):
            time.sleep(0.02)
            return original(batch, skip_malformed=skip_malformed)

        system.feed_batch = slow_feed_batch
        session = IngestSession(system, batch_size=2, queue_bound=2)
        session.run(from_pairs(xml_pages(12)))
        assert session.last_report.backpressure_waits > 0
        counters = system.metrics_snapshot()["counters"]
        assert counters["ingest.backpressure_waits"] >= 1

    def test_rejection_semantics_unchanged(self):
        """Regression: a rejected page is counted and skipped."""
        pages = xml_pages(9)
        pages.insert(4, ("http://www.shop.example/bad.xml", "<r><boom>"))
        system = build_system(batch_size=3)
        results = system.run_stream(from_pairs(pages))
        assert len(results) == 9
        assert system.documents_rejected == 1
        snapshot = system.metrics_snapshot()
        assert snapshot["rejections"] == {"XMLSyntaxError": 1}

    def test_skip_malformed_false_raises_and_stops(self):
        pages = xml_pages(9)
        pages.insert(4, ("http://www.shop.example/bad.xml", "<r><boom>"))
        system = build_system(batch_size=3)
        with pytest.raises(XMLSyntaxError):
            system.run_stream(from_pairs(pages), skip_malformed=False)
        # Documents after the failing batch never entered the pipeline.
        assert system.documents_fed < len(pages)

    def test_feeder_thread_terminates_when_executor_raises(self):
        """A consumer-side failure cancels the queue so the feeder's
        blocked put unblocks — no orphaned producer thread survives."""
        system = build_system(batch_size=2, queue_bound=2)

        def exploding_feed_batch(batch, skip_malformed=True):
            raise RuntimeError("pipeline died")

        system.feed_batch = exploding_feed_batch
        session = IngestSession(system, batch_size=2, queue_bound=2)
        # 40 pages >> queue bound: the feeder is parked on a full put
        # at the moment feed_batch raises.
        with pytest.raises(RuntimeError, match="pipeline died"):
            session.run(from_pairs(xml_pages(40)))
        assert not any(
            thread.name == "repro-ingest-feeder" and thread.is_alive()
            for thread in threading.enumerate()
        )

    def test_crash_point_unwinds_the_feeder_thread(self):
        """A simulated process death (BaseException, not Exception) must
        also join the feeder before propagating."""
        from repro.faults import CrashPoint, clear, install

        system = build_system(batch_size=2, queue_bound=2)
        session = IngestSession(system, batch_size=2, queue_bound=2)
        install("post-fetch", at=1)
        try:
            with pytest.raises(CrashPoint):
                session.run(from_pairs(xml_pages(40)))
        finally:
            clear()
        assert not any(
            thread.name == "repro-ingest-feeder" and thread.is_alive()
            for thread in threading.enumerate()
        )

    def test_stream_failure_loses_only_partial_tail(self):
        """A stream that raises mid-iteration loses only the partially
        accumulated batch; the full batches before it are fed."""

        def broken_stream():
            for url, content in xml_pages(7):
                yield Fetch(url, content)
            raise RuntimeError("crawler fell over")

        old = build_system(batch_size=3)
        with pytest.raises(RuntimeError):
            old.run_stream(broken_stream())
        # Two full batches (6 docs) processed; the partial 7th is lost.
        assert old.documents_fed == 6


class TestIngestSessionAndFrontend:
    def test_run_crawl_drains_concurrently(self):
        from repro.webworld import ChangeModel, SimulatedCrawler, SiteGenerator

        system = build_system(batch_size=4)
        generator = SiteGenerator(seed=3)
        crawler = SimulatedCrawler(
            clock=system.clock, change_model=ChangeModel(seed=4), seed=5
        )
        for i in range(10):
            crawler.add_xml_page(
                f"http://www.shop{i}.example/catalog.xml",
                generator.catalog(products=3),
            )
        with IngestSession(system) as session:
            results = session.run_crawl(crawler, concurrency=4)
        assert len(results) == 10
        counters = system.metrics_snapshot()["counters"]
        assert counters["frontend.fetches"] == 10

    def test_run_crawl_respects_refresh_schedule(self):
        from repro.webworld import SimulatedCrawler, SiteGenerator

        system = build_system()
        crawler = SimulatedCrawler(clock=system.clock, seed=5)
        crawler.add_xml_page(
            "http://www.shop.example/c.xml", SiteGenerator(seed=1).catalog(2)
        )
        session = IngestSession(system)
        assert len(session.run_crawl(crawler)) == 1
        assert session.run_crawl(crawler) == []  # nothing due yet
        system.clock.advance(SECONDS_PER_DAY)
        assert len(session.run_crawl(crawler)) == 1

    def test_session_defaults_come_from_system(self):
        system = build_system(batch_size=8, queue_bound=40)
        session = IngestSession(system)
        assert session.batch_size == 8
        assert session.queue_bound == 40

    def test_session_validates_bounds(self):
        system = build_system()
        with pytest.raises(PipelineError):
            IngestSession(system, batch_size=0)
        with pytest.raises(PipelineError):
            IngestSession(system, batch_size=8, queue_bound=4)


class TestApiFacade:
    def test_one_stop_import(self):
        from repro import api

        system = api.SubscriptionSystem(
            clock=SimulatedClock(0.0), batch_size=api.DEFAULT_BATCH_SIZE
        )
        assert isinstance(system, SubscriptionSystem)
        assert system.batch_size == 32

    def test_facade_covers_the_redesign(self):
        from repro import api

        for name in (
            "IngestSession",
            "AsyncFetchFrontend",
            "BoundedFetchQueue",
            "IngestReport",
        ):
            assert name in api.__all__
            assert hasattr(api, name)
