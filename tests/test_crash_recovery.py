"""Crash recovery and degraded-mode executors.

Two halves of the robustness story that the fault injector cannot reach:

* a *process* crash mid-batch — a non-``ReproError`` escaping a stage —
  must lose no durable subscription state: the MiniSQL WAL replays into
  a fresh :class:`~repro.pipeline.SubscriptionSystem` and
  :meth:`~repro.subscription.manager.SubscriptionManager.recover`
  restores every subscription, its inhibition flag and its refresh
  hints;
* a *worker* crash inside the process executor must degrade the batch
  to the serial path (counted under ``executor.fallbacks``) instead of
  aborting the stream, with results identical to a serial run.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.minisql import Database
from repro.pipeline import Fetch, ProcessExecutor, SubscriptionSystem

SOURCE = """
subscription Recovery
monitoring NewCam
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
refresh "http://www.shop0.example/catalog.xml" daily
report when immediate
"""

SECOND_SOURCE = SOURCE.replace("Recovery", "Muted")


def catalog_fetch(i, round_index=0, product="camera"):
    return Fetch(
        f"http://www.shop{i}.example/catalog.xml",
        f"<catalog><Product>{product} v{round_index}</Product></catalog>",
    )


class TestCrashRecovery:
    def test_wal_survives_a_mid_batch_crash(self, tmp_path):
        path = str(tmp_path / "subs.wal")
        system = SubscriptionSystem(database=Database(path=path))
        first = system.subscribe(SOURCE, owner_email="a@example.org")
        second = system.subscribe(SECOND_SOURCE, owner_email="b@example.org")
        system.manager.inhibit(second)
        hints = dict(system.manager.refresh_hints())
        system.feed_batch([catalog_fetch(0)])

        # Crash the process mid-batch: a non-ReproError escaping a stage
        # is an infrastructure failure, not a bad document — it must
        # propagate (and in a real deployment kill the worker).
        original = system.processor.process_alert

        def dying_stage(alert):
            raise RuntimeError("simulated crash: power loss mid-batch")

        system.processor.process_alert = dying_stage
        with pytest.raises(RuntimeError):
            system.feed_batch(
                [catalog_fetch(0, round_index=1), catalog_fetch(1)]
            )
        system.processor.process_alert = original
        system.manager.database.close()

        # Rebuild the whole system from the WAL alone.
        recovered = SubscriptionSystem(database=Database.recover(path))
        restored = recovered.manager.recover()
        assert restored == 2
        assert recovered.manager.count() == 2
        assert recovered.manager.subscription(first).active
        assert not recovered.manager.subscription(second).active
        assert dict(recovered.manager.refresh_hints()) == hints

        # The recovered system is live: the active subscription still
        # matches, the inhibited one stays quiet.
        results = recovered.run_stream(
            [catalog_fetch(0), catalog_fetch(0, round_index=1)]
        )
        notified = {
            n.subscription_id
            for result in results
            for n in result.notifications
            if hasattr(n, "subscription_id")
        }
        total = sum(len(r.notifications) for r in results)
        assert total >= 1
        if notified:
            assert second not in notified

    def test_recovered_ids_do_not_collide(self, tmp_path):
        path = str(tmp_path / "subs.wal")
        system = SubscriptionSystem(database=Database(path=path))
        first = system.subscribe(SOURCE, owner_email="a@example.org")
        system.manager.database.close()

        recovered = SubscriptionSystem(database=Database.recover(path))
        recovered.manager.recover()
        second = recovered.subscribe(
            SOURCE.replace("Recovery", "Later"), owner_email="c@example.org"
        )
        assert second > first


def build_system(executor, shards=1):
    system = SubscriptionSystem(
        clock=SimulatedClock(1_000_000.0),
        executor=executor,
        shards=shards,
    )
    system.subscribe(SOURCE, owner_email="a@example.org")
    return system


def stream(rounds=3, sites=6):
    return [
        catalog_fetch(i, r, "camera" if (r + i) % 2 == 0 else "tripod")
        for r in range(rounds)
        for i in range(sites)
    ]


def notification_keys(results):
    return sorted(
        (n.complex_code, n.document_url)
        for result in results
        for n in result.notifications
    )


class TestDegradedExecutors:
    def test_sharded_worker_crash_falls_back_to_serial(self):
        """A crashed pool on a 4-shard flow-partitioned system degrades
        to the serial path with serial-identical results."""
        executor = ProcessExecutor(workers=2)
        system = build_system(executor, shards=4)

        def broken_sweep(*args, **kwargs):
            raise RuntimeError("simulated pool crash")

        executor._process_sweep = broken_sweep
        baseline = build_system("serial", shards=4)
        results = system.run_stream(stream())
        expected = baseline.run_stream(stream())

        assert notification_keys(results) == notification_keys(expected)
        assert system.documents_fed == baseline.documents_fed
        counters = system.metrics_snapshot()["counters"]
        assert counters["executor.fallbacks{executor=process}"] >= 1
        executor.close()

    def test_partial_sweep_crash_is_safe_to_rerun(self):
        """A sweep that dies *after* processing some tasks must still
        produce serial-identical results (the stages are idempotent)."""
        executor = ProcessExecutor(workers=2)
        system = build_system(executor)
        calls = {"n": 0}

        def flaky_sweep(worker_fn, requests, apply_fn, extra_args=()):
            calls["n"] += 1
            # Process half the requests, then die mid-sweep.
            half = requests[: len(requests) // 2]
            for response in worker_fn(*extra_args, half):
                apply_fn(response)
            raise RuntimeError("simulated mid-sweep crash")

        executor._process_sweep = flaky_sweep
        baseline = build_system("serial")
        results = system.run_stream(stream())
        expected = baseline.run_stream(stream())

        assert calls["n"] >= 1
        assert notification_keys(results) == notification_keys(expected)
        executor.close()

    def test_healthy_executors_never_count_fallbacks(self):
        for shards in (1, 4):
            executor = ProcessExecutor(workers=2)
            system = build_system(executor, shards=shards)
            system.run_stream(stream())
            executor.close()
            counters = system.metrics_snapshot()["counters"]
            fallback_keys = [
                key for key in counters if key.startswith("executor.fallbacks")
            ]
            assert fallback_keys == []
