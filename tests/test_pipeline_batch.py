"""Batch feeding: feed_batch / run_stream.

The contract under test is the batch equivalence promise: a batch
produces the same notifications, the same rejection accounting and the
same counters as feeding its documents one at a time.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.errors import PipelineError, XMLSyntaxError
from repro.pipeline import Fetch, SubscriptionSystem

SOURCE = """
subscription Batch
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when immediate
"""


def build_system(**kwargs) -> SubscriptionSystem:
    system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0), **kwargs)
    system.subscribe(SOURCE, owner_email="u@x")
    return system


def make_stream(rounds: int = 3, sites: int = 6, malformed: bool = False):
    """A deterministic multi-round crawl over a little shop web."""
    fetches = []
    for r in range(rounds):
        for i in range(sites):
            product = "camera" if (r + i) % 2 == 0 else "tripod"
            fetches.append(
                Fetch(
                    f"http://www.shop{i}.example/catalog.xml",
                    f"<catalog><Product>{product} v{r}</Product></catalog>",
                )
            )
        if malformed:
            fetches.append(
                Fetch(f"http://www.shop.example/bad{r}.xml", "<r><boom>")
            )
    return fetches


def notification_keys(results):
    return [
        (n.complex_code, n.document_url, n.timestamp)
        for result in results
        for n in result.notifications
    ]


def comparable_histograms(snapshot):
    """Latency/stage histograms without the batch series (which exist only
    on the batch path and depend on the batch size)."""
    return {
        key: payload
        for key, payload in snapshot["histograms"].items()
        if not key.startswith("executor.")
    }


def assert_equivalent(baseline, other, *, compare_histograms=True):
    base_snap = baseline.metrics_snapshot()
    other_snap = other.metrics_snapshot()
    assert other_snap["counters"] == base_snap["counters"]
    assert other_snap["documents_fed"] == base_snap["documents_fed"]
    assert other_snap["documents_rejected"] == base_snap[
        "documents_rejected"
    ]
    assert other_snap["rejections"] == base_snap["rejections"]
    assert (
        other_snap["notifications_emitted"]
        == base_snap["notifications_emitted"]
    )
    if compare_histograms:
        assert comparable_histograms(other_snap) == comparable_histograms(
            base_snap
        )


class TestBatchSettings:
    def test_system_rejects_bad_batch_size(self):
        with pytest.raises(PipelineError):
            SubscriptionSystem(clock=SimulatedClock(0.0), batch_size=0)


class TestSerialBatchEquivalence:
    """feed_batch == sequential feed calls."""

    def test_matches_sequential_feeds(self):
        stream = make_stream()
        sequential = build_system()
        for fetch in stream:
            sequential.feed(fetch)
        batched = build_system()
        results = batched.feed_batch(stream)
        assert len(results) == len(stream)
        assert [r.outcome.status for r in results] == [
            "new" if i < 6 else "updated" for i in range(len(stream))
        ]
        sequential_results = []  # re-run to collect FeedResults for keys
        replay = build_system()
        for fetch in stream:
            sequential_results.append(replay.feed(fetch))
        assert notification_keys(results) == notification_keys(
            sequential_results
        )
        assert_equivalent(sequential, batched)

    def test_reports_match_after_advancing(self):
        stream = make_stream()
        sequential = build_system()
        for fetch in stream:
            sequential.feed(fetch)
        batched = build_system()
        batched.feed_batch(stream)
        sequential.advance_days(1)
        batched.advance_days(1)
        assert (
            batched.email_sink.total_sent == sequential.email_sink.total_sent
        )
        assert [e.body for e in batched.email_sink.sent] == [
            e.body for e in sequential.email_sink.sent
        ]

    def test_batch_metrics_recorded(self):
        system = build_system()
        system.feed_batch(make_stream(rounds=1, sites=4))
        system.feed_batch(make_stream(rounds=1, sites=4))
        snapshot = system.metrics_snapshot()
        sizes = snapshot["histograms"]["executor.batch_size{executor=serial}"]
        assert sizes["count"] == 2
        assert sizes["sum"] == 8.0
        assert snapshot["gauges"]["executor.queue_depth"] == 0.0
        run_batch = snapshot["histograms"][
            "executor.run_batch.latency_seconds{executor=serial}"
        ]
        assert run_batch["count"] == 2
        assert (
            snapshot["stages"]["executor.stage"] > 0
        )  # per-stage batch latency series exists

    def test_single_feed_path_has_no_executor_series(self):
        system = build_system()
        system.feed_xml("http://www.shop0.example/catalog.xml", "<r/>")
        snapshot = system.metrics_snapshot()
        assert not any(
            key.startswith("executor.")
            for section in ("counters", "gauges", "histograms")
            for key in snapshot[section]
        )

    def test_strict_mode_raises_and_halts(self):
        system = build_system()
        with pytest.raises(XMLSyntaxError):
            system.feed_batch(
                [
                    Fetch("http://www.shop0.example/a.xml", "<r/>"),
                    Fetch("http://www.shop0.example/bad.xml", "<r><boom>"),
                    Fetch("http://www.shop0.example/late.xml", "<r/>"),
                ],
                skip_malformed=False,
            )
        assert system.documents_fed == 1
        assert not system.repository.has_url(
            "http://www.shop0.example/late.xml"
        )

    def test_skip_malformed_counts_rejections(self):
        stream = make_stream(malformed=True)
        system = build_system()
        results = system.feed_batch(stream)
        assert len(results) == len(stream) - 3
        assert system.documents_rejected == 3
        snapshot = system.metrics_snapshot()
        assert snapshot["rejections"] == {"XMLSyntaxError": 3}

    def test_run_stream_batches_match_one_big_batch(self):
        stream = make_stream()
        one_batch = build_system()
        one_batch.feed_batch(stream)
        small_batches = build_system()
        small_batches.run_stream(iter(stream), batch_size=4)
        assert_equivalent(one_batch, small_batches)


class TestShardedBatchEquivalence:
    """Batching on a flow-partitioned MQP (``shards=N``) matches feeding
    the same stream one document at a time."""

    def test_matches_serial_on_sharded_system(self):
        stream = make_stream(rounds=4, sites=8, malformed=True)
        one_at_a_time = build_system(shards=3)
        expected = one_at_a_time.run_stream(iter(stream), batch_size=1)
        batched = build_system(shards=3)
        results = batched.run_stream(iter(stream), batch_size=16)
        assert notification_keys(results) == notification_keys(expected)
        assert_equivalent(one_at_a_time, batched)
        assert (
            batched.metrics_snapshot()["shard_load"]
            == one_at_a_time.metrics_snapshot()["shard_load"]
        )
