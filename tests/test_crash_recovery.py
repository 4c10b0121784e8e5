"""Crash recovery of the subscription database.

A *process* crash mid-batch — a non-``ReproError`` escaping a stage —
must lose no durable subscription state: the MiniSQL WAL replays into a
fresh :class:`~repro.pipeline.SubscriptionSystem` and
:meth:`~repro.subscription.manager.SubscriptionManager.recover` restores
every subscription, its inhibition flag and its refresh hints.
"""

from __future__ import annotations

import pytest

from repro.minisql import Database
from repro.pipeline import Fetch, SubscriptionSystem

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

