"""Unit tests for the fault-tolerance primitives (``repro.faults``).

Covers the injector (seeded determinism, per-class rates, metrics), the
retry policy (exponential backoff, deterministic jitter), the circuit
breaker state machine, and the bounded dead-letter queue including its
JSON persistence used by the ``repro-monitor dlq`` CLI.
"""

from __future__ import annotations

import os

import pytest

from repro.clock import SimulatedClock
from repro.errors import (
    FetchConnectionReset,
    FetchError,
    FetchServerError,
    FetchTimeout,
    GarbageFetch,
    PipelineError,
    ReproError,
    TruncatedFetch,
)
from repro.faults import (
    CLOSED,
    CircuitBreaker,
    DeadLetterEntry,
    DeadLetterQueue,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    HALF_OPEN,
    OPEN,
    RetryPolicy,
    SOURCE_CRAWL,
    SOURCE_PIPELINE,
    TRANSIENT_KINDS,
)
from repro.observability import MetricsRegistry
from repro.pipeline import Fetch


class TestErrorTaxonomy:
    def test_fetch_errors_are_repro_errors(self):
        for cls in (
            FetchTimeout,
            FetchConnectionReset,
            TruncatedFetch,
            GarbageFetch,
        ):
            error = cls("boom", url="http://x.example/a.xml")
            assert isinstance(error, FetchError)
            assert isinstance(error, ReproError)
            assert error.url == "http://x.example/a.xml"

    def test_transient_flags(self):
        assert FetchTimeout("t").transient
        assert FetchConnectionReset("r").transient
        assert FetchServerError("s").transient
        assert TruncatedFetch("p").transient
        assert not GarbageFetch("g").transient

    def test_server_error_carries_status(self):
        error = FetchServerError("s", status=503)
        assert error.status == 503
        assert error.kind == "http_5xx"


class TestFaultPlan:
    def test_negative_rate_rejected(self):
        with pytest.raises(PipelineError):
            FaultPlan(timeout_rate=-0.1)

    def test_rates_summing_past_one_rejected(self):
        with pytest.raises(PipelineError):
            FaultPlan(timeout_rate=0.6, garbage_rate=0.5)

    def test_transient_only_excludes_garbage(self):
        plan = FaultPlan.transient_only(0.2, seed=3)
        assert plan.garbage_rate == 0.0
        assert plan.total_rate() == pytest.approx(0.2)
        for kind in TRANSIENT_KINDS:
            assert plan.rates()[kind] == pytest.approx(0.05)

    def test_uniform_covers_every_kind(self):
        plan = FaultPlan.uniform(0.5)
        assert plan.total_rate() == pytest.approx(0.5)
        assert all(rate > 0 for rate in plan.rates().values())

    def test_rates_follow_canonical_kind_order(self):
        assert tuple(FaultPlan().rates()) == FAULT_KINDS


class TestFaultInjector:
    def test_same_plan_same_fault_sequence(self):
        plan = FaultPlan.uniform(0.5, seed=11)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        outcomes_a = [
            type(first.roll(f"http://s/{i}.xml")).__name__ for i in range(200)
        ]
        outcomes_b = [
            type(second.roll(f"http://s/{i}.xml")).__name__
            for i in range(200)
        ]
        assert outcomes_a == outcomes_b
        assert first.injected == second.injected

    def test_zero_rate_plan_never_faults(self):
        injector = FaultInjector(FaultPlan())
        assert all(
            injector.roll("http://s/a.xml") is None for _ in range(100)
        )
        assert injector.injected == {}
        assert injector.rolls == 100

    def test_injection_rate_is_approximately_honoured(self):
        injector = FaultInjector(FaultPlan.transient_only(0.2, seed=5))
        faults = sum(
            1
            for _ in range(2000)
            if injector.roll("http://s/a.xml") is not None
        )
        assert 300 <= faults <= 500  # 0.2 +/- generous tolerance

    def test_fault_metrics_labelled_by_kind(self):
        metrics = MetricsRegistry(SimulatedClock())
        injector = FaultInjector(
            FaultPlan(timeout_rate=1.0), metrics=metrics
        )
        for _ in range(3):
            assert isinstance(injector.roll("http://s/a.xml"), FetchTimeout)
        counters = metrics.snapshot()["counters"]
        assert counters["faults.injected{kind=timeout}"] == 3

    def test_truncated_payload_is_content_prefix(self):
        injector = FaultInjector(FaultPlan(truncated_rate=1.0))
        fault = injector.roll("http://s/a.xml", "<catalog>abcdef</catalog>")
        assert isinstance(fault, TruncatedFetch)
        assert "<catalog>abcdef</catalog>".startswith(fault.payload)
        assert len(fault.payload) < len("<catalog>abcdef</catalog>")

    def test_server_error_status_is_deterministic_per_url(self):
        injector = FaultInjector(FaultPlan(http_5xx_rate=1.0))
        first = injector.roll("http://s/a.xml")
        second = injector.roll("http://s/a.xml")
        assert 500 <= first.status <= 504
        assert first.status == second.status

    def test_wrap_filters_faulty_fetches(self):
        injector = FaultInjector(FaultPlan.uniform(0.5, seed=2))
        stream = [
            Fetch(f"http://s/{i}.xml", "<r/>") for i in range(40)
        ]
        passed = list(injector.wrap(stream))
        assert 0 < len(passed) < 40
        assert len(passed) + len(injector.dropped) == 40
        for fetch, error in injector.dropped:
            assert isinstance(error, FetchError)
            assert error.url == fetch.url


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(PipelineError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PipelineError):
            RetryPolicy(base_delay=0)
        with pytest.raises(PipelineError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(PipelineError):
            RetryPolicy().backoff(0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay=60.0, multiplier=2.0, max_delay=300.0, jitter=0.0
        )
        assert policy.backoff(1) == 60.0
        assert policy.backoff(2) == 120.0
        assert policy.backoff(3) == 240.0
        assert policy.backoff(4) == 300.0  # capped
        assert policy.backoff(9) == 300.0

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=100.0, multiplier=1.0, jitter=0.1)
        delays = {
            policy.backoff(1, f"http://s/{i}.xml") for i in range(50)
        }
        assert len(delays) > 1  # jitter actually varies by URL
        for delay in delays:
            assert 90.0 <= delay <= 110.0
        assert policy.backoff(3, "http://s/a.xml") == policy.backoff(
            3, "http://s/a.xml"
        )


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=100.0)
        assert breaker.state == CLOSED
        breaker.record_failure(10.0)
        breaker.record_failure(11.0)
        assert breaker.state == CLOSED
        breaker.record_failure(12.0)
        assert breaker.state == OPEN
        assert not breaker.allow(50.0)
        assert breaker.retry_at(50.0) == 112.0

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=100.0)
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        assert not breaker.allow(99.0)
        assert breaker.allow(100.0)  # the single probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(101.0)  # everything else held
        breaker.record_success(102.0)
        assert breaker.state == CLOSED
        assert breaker.allow(103.0)

    def test_failed_probe_reopens_with_fresh_timer(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(100.0)
        assert breaker.state == OPEN
        assert not breaker.allow(199.0)
        assert breaker.allow(200.0)

    def test_state_change_callback_fires_on_each_edge(self):
        edges = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=10.0,
            on_state_change=lambda old, new: edges.append((old, new)),
        )
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.record_success(11.0)
        assert edges == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]
        assert breaker.state_changes == 3

    def test_validation(self):
        with pytest.raises(PipelineError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(PipelineError):
            CircuitBreaker(reset_timeout=0.0)


class TestDeadLetterQueue:
    def entry(self, i=0, source=SOURCE_CRAWL):
        return DeadLetterEntry(
            url=f"http://s/{i}.xml",
            content=f"<r>{i}</r>",
            error="boom",
            error_class="FetchTimeout",
            source=source,
            attempts=3,
            quarantined_at=float(i),
        )

    def test_capacity_validated(self):
        with pytest.raises(PipelineError):
            DeadLetterQueue(capacity=0)

    def test_push_and_inspect(self):
        queue = DeadLetterQueue()
        queue.push(self.entry(1))
        queue.push(self.entry(2))
        assert len(queue) == 2
        assert [e.url for e in queue] == ["http://s/1.xml", "http://s/2.xml"]
        assert queue.total_quarantined == 2

    def test_bounded_drops_oldest(self):
        queue = DeadLetterQueue(capacity=2)
        for i in range(4):
            queue.push(self.entry(i))
        assert len(queue) == 2
        assert queue.dropped == 2
        assert [e.url for e in queue] == ["http://s/2.xml", "http://s/3.xml"]
        assert queue.total_quarantined == 4

    def test_drain_and_purge(self):
        queue = DeadLetterQueue()
        queue.push(self.entry())
        drained = queue.drain()
        assert len(drained) == 1 and len(queue) == 0
        queue.push(self.entry())
        assert queue.purge() == 1
        assert len(queue) == 0

    def test_entry_round_trips_to_fetch(self):
        entry = self.entry(7)
        fetch = entry.to_fetch()
        assert fetch.url == entry.url
        assert fetch.content == entry.content
        assert fetch.kind == entry.kind

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "dlq.json")
        queue = DeadLetterQueue(capacity=3)
        queue.push(self.entry(1))
        queue.push(self.entry(2, source=SOURCE_PIPELINE))
        queue.save(path)
        loaded = DeadLetterQueue.load(path)
        assert loaded.capacity == 3
        assert [e.to_dict() for e in loaded] == [
            e.to_dict() for e in queue
        ]

    def test_load_evicts_entries_past_capacity(self, tmp_path):
        """A file holding more entries than its capacity loads bounded:
        the oldest are evicted and counted as dropped, as push does."""
        import json

        path = str(tmp_path / "dlq.json")
        queue = DeadLetterQueue(capacity=8)
        for i in range(4):
            queue.push(self.entry(i))
        queue.save(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["capacity"] = 2
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        loaded = DeadLetterQueue.load(path)
        assert loaded.capacity == 2
        assert len(loaded) == 2
        assert [e.url for e in loaded] == ["http://s/2.xml", "http://s/3.xml"]
        assert loaded.dropped == 2
        assert loaded.total_quarantined == 4

    def test_save_load_keeps_total_quarantined(self, tmp_path):
        path = str(tmp_path / "dlq.json")
        queue = DeadLetterQueue(capacity=2)
        for i in range(4):
            queue.push(self.entry(i))
        queue.save(path)
        loaded = DeadLetterQueue.load(path)
        assert loaded.total_quarantined == queue.total_quarantined == 4
        assert loaded.dropped == queue.dropped == 2
        assert len(loaded) == 2

    def test_save_is_atomic_under_a_mid_write_crash(self, tmp_path, monkeypatch):
        """A crash mid-save must leave the old file intact — never a
        truncated hybrid, never a stray temp file."""
        import builtins

        import repro.minisql.wal as wal_module

        path = str(tmp_path / "dlq.json")
        queue = DeadLetterQueue(capacity=3)
        queue.push(self.entry(1))
        queue.save(path)
        before = open(path, encoding="utf-8").read()

        queue.push(self.entry(2, source=SOURCE_PIPELINE))

        class TornHandle:
            """Writes the first half of the text, then the disk dies."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                torn.append(os.path.getsize(self.handle.name))
                raise OSError("disk died mid-write")

        torn = []

        def torn_open(file, mode="r", *args, **kwargs):
            return TornHandle(builtins.open(file, mode, *args, **kwargs))

        monkeypatch.setattr(wal_module, "open", torn_open, raising=False)
        with pytest.raises(OSError, match="mid-write"):
            queue.save(path)
        monkeypatch.undo()

        assert torn and torn[0] > 0  # part of the new file did hit the disk
        assert open(path, encoding="utf-8").read() == before
        assert not os.path.exists(path + ".tmp")
        loaded = DeadLetterQueue.load(path)
        assert len(loaded) == 1  # the pre-crash save, byte-for-byte

    def test_metrics_gauge_and_counter(self):
        metrics = MetricsRegistry(SimulatedClock())
        queue = DeadLetterQueue(metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["dlq.depth"] == 0
        queue.push(self.entry(1))
        queue.push(self.entry(2, source=SOURCE_PIPELINE))
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["dlq.depth"] == 2
        assert snapshot["counters"]["dlq.quarantined{source=crawl}"] == 1
        assert snapshot["counters"]["dlq.quarantined{source=pipeline}"] == 1
        queue.purge()
        assert metrics.snapshot()["gauges"]["dlq.depth"] == 0
