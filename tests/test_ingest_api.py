"""The ingest API: batch settings, the stream loop, the facade.

Pins the public-surface promises of stream ingestion:

* ``batch_size`` defaults to 32, the keyword argument overrides it, and
  a non-positive size is rejected;
* ``run_stream`` pulls ``batch_size`` fetches at a time and feeds each
  batch through ``feed_batch`` on the calling thread — a rejected page
  is counted and skipped, and a failure stops the stream where it
  happened;
* ``repro.api`` is the stable facade.
"""

from __future__ import annotations

import pytest

from repro.clock import SECONDS_PER_DAY, SimulatedClock
from repro.errors import PipelineError, XMLSyntaxError
from repro.pipeline import Fetch, SubscriptionSystem, from_pairs

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
        system = SubscriptionSystem(clock=SimulatedClock(0.0), batch_size=8)
        assert system.batch_size == 8

    def test_defaults(self):
        system = SubscriptionSystem(clock=SimulatedClock(0.0))
        assert system.batch_size == 32

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(PipelineError):
            SubscriptionSystem(clock=SimulatedClock(0.0), batch_size=0)


class TestRunStreamLoop:
    def test_batches_of_batch_size_in_stream_order(self):
        system = build_system(batch_size=4)
        seen = []
        original = system.feed_batch

        def recording_feed_batch(batch, skip_malformed=True):
            seen.append([fetch.url for fetch in batch])
            return original(batch, skip_malformed=skip_malformed)

        system.feed_batch = recording_feed_batch
        results = system.run_stream(from_pairs(xml_pages(10)))
        assert len(results) == 10
        assert [len(batch) for batch in seen] == [4, 4, 2]
        assert [url for batch in seen for url in batch] == [
            url for url, _ in xml_pages(10)
        ]

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

    def test_feed_batch_failure_stops_pulling_the_stream(self):
        """A pipeline failure propagates at once: the stream is not
        pulled past the batch that failed."""
        system = build_system(batch_size=2)
        pulled = []

        def stream():
            for url, content in xml_pages(40):
                pulled.append(url)
                yield Fetch(url, content)

        def exploding_feed_batch(batch, skip_malformed=True):
            raise RuntimeError("pipeline died")

        system.feed_batch = exploding_feed_batch
        with pytest.raises(RuntimeError, match="pipeline died"):
            system.run_stream(stream())
        assert len(pulled) == 2

    def test_crash_point_at_post_fetch_precedes_the_batch(self):
        """A simulated process death (BaseException, not Exception) at
        ``post-fetch`` fires after the batch is pulled and before any of
        its pages is fed."""
        from repro.faults import CrashPoint, clear, install

        system = build_system(batch_size=2)
        install("post-fetch", at=2)
        try:
            with pytest.raises(CrashPoint):
                system.run_stream(from_pairs(xml_pages(40)))
        finally:
            clear()
        assert system.documents_fed == 2

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

    def test_crawl_respects_refresh_schedule(self):
        from repro.webworld import SimulatedCrawler, SiteGenerator

        system = build_system()
        crawler = SimulatedCrawler(clock=system.clock, seed=5)
        crawler.add_xml_page(
            "http://www.shop.example/c.xml", SiteGenerator(seed=1).catalog(2)
        )
        assert len(system.run_stream(crawler.due_fetches())) == 1
        assert system.run_stream(crawler.due_fetches()) == []  # not due yet
        system.clock.advance(SECONDS_PER_DAY)
        assert len(system.run_stream(crawler.due_fetches())) == 1


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

        for name in ("SubscriptionSystem", "Fetch", "FeedResult",
                     "from_pairs", "DEFAULT_BATCH_SIZE"):
            assert name in api.__all__
            assert hasattr(api, name)
        for removed in ("IngestSession", "IngestReport",
                        "AsyncFetchFrontend", "BoundedFetchQueue"):
            assert not hasattr(api, removed)
