import pytest

from repro.alerters import AlerterChain
from repro.clock import SimulatedClock
from repro.core import Alert, MonitoringQueryProcessor
from repro.errors import ResourceLimitError, SubscriptionError
from repro.minisql import Database
from repro.reporting import Reporter
from repro.subscription import (
    CostController,
    SubscriptionCompiler,
    SubscriptionManager,
)

SOURCE = """
subscription MyXyleme
monitoring UpdatedPage
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/"
  and modified self
report when immediate
"""

VIRTUAL_SOURCE = """
subscription Follower
virtual MyXyleme.UpdatedPage
report when immediate
"""


class Harness:
    def __init__(self, database=None):
        self.clock = SimulatedClock(1000.0)
        self.processor = MonitoringQueryProcessor(clock=self.clock)
        self.chain = AlerterChain()
        self.reporter = Reporter(clock=self.clock)
        self.compiler = SubscriptionCompiler(
            processor=self.processor,
            alerter_chain=self.chain,
            trigger_engine=None,
            reporter=self.reporter,
        )
        self.manager = SubscriptionManager(
            compiler=self.compiler,
            cost_controller=CostController(),
            database=database,
        )
        self.processor.add_sink(self.manager.handle_notifications)

    def feed(self, url, status="updated"):
        from repro.alerters.context import FetchedDocument
        from repro.repository import DocumentMeta
        from repro.xmlstore import parse

        fetched = FetchedDocument(
            url=url,
            meta=DocumentMeta(doc_id=1, url=url),
            status=status,
            document=parse("<r/>"),
        )
        alert = self.chain.build_alert(fetched)
        if alert is None:
            return []
        return self.processor.process_alert(alert)


@pytest.fixture
def harness():
    return Harness()


class TestLifecycle:
    def test_add_returns_increasing_ids(self, harness):
        first = harness.manager.add_subscription(SOURCE, "a@x")
        second = harness.manager.add_subscription(
            SOURCE.replace("MyXyleme", "Other"), "b@x"
        )
        assert second == first + 1

    def test_duplicate_name_rejected(self, harness):
        harness.manager.add_subscription(SOURCE, "a@x")
        with pytest.raises(SubscriptionError):
            harness.manager.add_subscription(SOURCE, "b@x")

    def test_matching_document_reaches_reporter(self, harness):
        sub_id = harness.manager.add_subscription(SOURCE, "a@x")
        notifications = harness.feed("http://inria.fr/Xy/index.html")
        assert len(notifications) == 1
        assert harness.reporter.stats.reports_generated == 1

    def test_nonmatching_document_ignored(self, harness):
        harness.manager.add_subscription(SOURCE, "a@x")
        assert harness.feed("http://elsewhere.org/") == []

    def test_remove_subscription_stops_matching(self, harness):
        sub_id = harness.manager.add_subscription(SOURCE, "a@x")
        harness.manager.remove_subscription(sub_id)
        assert harness.feed("http://inria.fr/Xy/index.html") == []
        assert harness.manager.count() == 0

    def test_remove_unknown_raises(self, harness):
        with pytest.raises(SubscriptionError):
            harness.manager.remove_subscription(99)

    def test_cost_control_applied(self, harness):
        expensive = SOURCE.replace(
            'URL extends "http://inria.fr/Xy/"', 'self contains "the"'
        )
        with pytest.raises(ResourceLimitError):
            harness.manager.add_subscription(expensive, "a@x")

    def test_privileged_user_bypasses_cost_control(self, harness):
        harness.manager.register_user("boss@x", privileged=True)
        expensive = SOURCE.replace(
            'URL extends "http://inria.fr/Xy/"', 'self contains "the"'
        )
        sub_id = harness.manager.add_subscription(expensive, "boss@x")
        assert sub_id > 0


class TestInhibition:
    def test_inhibit_stops_routing_but_keeps_matching(self, harness):
        sub_id = harness.manager.add_subscription(SOURCE, "a@x")
        harness.manager.inhibit(sub_id)
        notifications = harness.feed("http://inria.fr/Xy/index.html")
        # The MQP still matches (a-posteriori inhibition), but nothing is
        # delivered to the Reporter.
        assert len(notifications) == 1
        assert harness.reporter.stats.reports_generated == 0

    def test_resume_restores_routing(self, harness):
        sub_id = harness.manager.add_subscription(SOURCE, "a@x")
        harness.manager.inhibit(sub_id)
        harness.manager.resume(sub_id)
        harness.feed("http://inria.fr/Xy/index.html")
        assert harness.reporter.stats.reports_generated == 1


class TestVirtualSubscriptions:
    def test_virtual_subscriber_receives_copies(self, harness):
        harness.manager.add_subscription(SOURCE, "owner@x")
        follower_id = harness.manager.add_subscription(
            VIRTUAL_SOURCE, "follower@x"
        )
        harness.feed("http://inria.fr/Xy/index.html")
        # Both the owner and the follower got a report.
        assert harness.reporter.stats.reports_generated == 2
        body = harness.reporter.publisher.fetch(follower_id)
        assert "UpdatedPage" in body

    def test_virtual_does_not_add_monitoring_load(self, harness):
        harness.manager.add_subscription(SOURCE, "owner@x")
        before = len(harness.processor.matcher)
        harness.manager.add_subscription(VIRTUAL_SOURCE, "f@x")
        assert len(harness.processor.matcher) == before


class TestEventSharing:
    def test_identical_conditions_share_atomic_events(self, harness):
        harness.manager.add_subscription(SOURCE, "a@x")
        atomic_before = harness.processor.registry.atomic_count()
        harness.manager.add_subscription(
            SOURCE.replace("MyXyleme", "Clone"), "b@x"
        )
        assert harness.processor.registry.atomic_count() == atomic_before

    def test_shared_event_survives_one_removal(self, harness):
        first = harness.manager.add_subscription(SOURCE, "a@x")
        second = harness.manager.add_subscription(
            SOURCE.replace("MyXyleme", "Clone"), "b@x"
        )
        harness.manager.remove_subscription(first)
        notifications = harness.feed("http://inria.fr/Xy/index.html")
        assert len(notifications) == 1


class TestPersistenceAndRecovery:
    def test_recovery_restores_subscriptions(self, tmp_path):
        path = str(tmp_path / "subs.wal")
        harness = Harness(database=Database(path=path))
        harness.manager.add_subscription(SOURCE, "a@x")
        harness.manager.database.close()

        recovered_db = Database.recover(path)
        fresh = Harness(database=recovered_db)
        restored = fresh.manager.recover()
        assert restored == 1
        notifications = fresh.feed("http://inria.fr/Xy/index.html")
        assert len(notifications) == 1
        assert fresh.reporter.stats.reports_generated == 1

    def test_recovery_preserves_inhibition(self, tmp_path):
        path = str(tmp_path / "subs.wal")
        harness = Harness(database=Database(path=path))
        sub_id = harness.manager.add_subscription(SOURCE, "a@x")
        harness.manager.inhibit(sub_id)
        harness.manager.database.close()

        fresh = Harness(database=Database.recover(path))
        fresh.manager.recover()
        fresh.feed("http://inria.fr/Xy/index.html")
        assert fresh.reporter.stats.reports_generated == 0

    def test_new_ids_continue_after_recovery(self, tmp_path):
        path = str(tmp_path / "subs.wal")
        harness = Harness(database=Database(path=path))
        first = harness.manager.add_subscription(SOURCE, "a@x")
        harness.manager.database.close()

        fresh = Harness(database=Database.recover(path))
        fresh.manager.recover()
        second = fresh.manager.add_subscription(
            SOURCE.replace("MyXyleme", "Next"), "b@x"
        )
        assert second > first

    def test_a_row_that_no_longer_parses_does_not_stop_recovery(
        self, tmp_path
    ):
        path = str(tmp_path / "subs.wal")
        harness = Harness(database=Database(path=path))
        ids = [
            harness.manager.add_subscription(
                SOURCE.replace("MyXyleme", f"Sub{n}"), "a@x"
            )
            for n in range(3)
        ]
        # A literal an older grammar accepted and this one rejects.
        broken = SOURCE.replace("MyXyleme", "Sub0").replace(
            "and modified self", "and DOCID = 1.2.3"
        )
        harness.manager.database.table("subscriptions").update(
            ids[0], {"source": broken}
        )
        harness.manager.database.close()

        fresh = Harness(database=Database.recover(path))
        assert fresh.manager.recover() == 2
        assert list(fresh.manager.unrecovered) == [ids[0]]
        assert "1.2.3" in fresh.manager.unrecovered[ids[0]]
        notifications = fresh.feed("http://inria.fr/Xy/index.html")
        assert len(notifications) == 2


class TestRefreshHints:
    def test_hints_collected(self, harness):
        harness.manager.add_subscription(
            'subscription R\nrefresh "http://u/" weekly', "a@x"
        )
        hints = harness.manager.refresh_hints()
        assert "http://u/" in hints
