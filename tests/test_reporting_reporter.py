import pytest

from repro.clock import SECONDS_PER_DAY, SECONDS_PER_WEEK, SimulatedClock
from repro.errors import ReportingError
from repro.language.ast import (
    CountCondition,
    ImmediateCondition,
    PeriodicCondition,
    ReportCondition,
)
from repro.reporting import EmailSink, Reporter, ReportRegistration, WebPublisher
from repro.xmlstore import parse, serialize
from repro.xmlstore.nodes import ElementNode


def notification(text="n"):
    return serialize(ElementNode("Notification", {"data": text}))


def immediate_registration(sub_id=1, **kwargs):
    kwargs.setdefault("recipients", ("user@example.org",))
    return ReportRegistration(
        subscription_id=sub_id,
        when=ReportCondition(terms=(ImmediateCondition(),)),
        **kwargs,
    )


@pytest.fixture
def clock():
    return SimulatedClock(1_000_000.0)


@pytest.fixture
def reporter(clock):
    return Reporter(clock=clock)


class TestLifecycle:
    def test_register_and_deliver(self, reporter):
        reporter.register(immediate_registration())
        reporter.deliver(1, "Q", [notification()])
        assert reporter.stats.reports_generated == 1

    def test_duplicate_registration_rejected(self, reporter):
        reporter.register(immediate_registration())
        with pytest.raises(ReportingError):
            reporter.register(immediate_registration())

    def test_deliver_to_unknown_subscription_rejected(self, reporter):
        with pytest.raises(ReportingError):
            reporter.deliver(9, "Q", [notification()])

    def test_unregister(self, reporter):
        reporter.register(immediate_registration())
        reporter.unregister(1)
        assert not reporter.registered(1)


class TestCountConditions:
    def test_buffer_until_threshold(self, reporter):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(terms=(CountCondition(threshold=3),)),
                recipients=("u@x",),
            )
        )
        reporter.deliver(1, "Q", [notification("a")])
        reporter.deliver(1, "Q", [notification("b")])
        assert reporter.stats.reports_generated == 0
        assert reporter.pending_count(1) == 2
        reporter.deliver(1, "Q", [notification("c")])
        assert reporter.stats.reports_generated == 1
        assert reporter.pending_count(1) == 0

    def test_report_empties_buffer_for_next_round(self, reporter):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(terms=(CountCondition(threshold=2),)),
            )
        )
        for _ in range(5):
            reporter.deliver(1, "Q", [notification()])
        assert reporter.stats.reports_generated == 2
        assert reporter.pending_count(1) == 1

    def test_named_count(self, reporter):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(
                    terms=(
                        CountCondition(threshold=2, query_name="UpdatedPage"),
                    )
                ),
            )
        )
        reporter.deliver(1, "Other", [notification()] * 5)
        assert reporter.stats.reports_generated == 0
        reporter.deliver(1, "UpdatedPage", [notification()] * 2)
        assert reporter.stats.reports_generated == 1


class TestPeriodicConditions:
    def test_tick_generates_periodic_report(self, reporter, clock):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(
                    terms=(PeriodicCondition(frequency="daily"),)
                ),
            )
        )
        reporter.deliver(1, "Q", [notification()])
        assert reporter.tick() == 0
        clock.advance(SECONDS_PER_DAY)
        assert reporter.tick() == 1

    def test_no_report_without_notifications(self, reporter, clock):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(
                    terms=(PeriodicCondition(frequency="daily"),)
                ),
            )
        )
        clock.advance(2 * SECONDS_PER_DAY)
        assert reporter.tick() == 0


class TestAtmost:
    def test_atmost_count_suppresses_overflow(self, reporter):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(terms=(CountCondition(threshold=100),)),
                atmost_count=3,
            )
        )
        reporter.deliver(1, "Q", [notification(str(i)) for i in range(10)])
        assert reporter.pending_count(1) == 3
        assert reporter.stats.notifications_suppressed == 7

    def test_atmost_frequency_rate_limits(self, reporter, clock):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(terms=(ImmediateCondition(),)),
                atmost_frequency="weekly",
            )
        )
        reporter.deliver(1, "Q", [notification("first")])
        assert reporter.stats.reports_generated == 1
        reporter.deliver(1, "Q", [notification("second")])
        # The when clause triggered but the rate limit held it back.
        assert reporter.stats.reports_generated == 1
        clock.advance(SECONDS_PER_WEEK)
        reporter.tick()
        assert reporter.stats.reports_generated == 2


class TestDelivery:
    def test_emails_sent_to_recipients(self, clock):
        sink = EmailSink(clock=clock)
        reporter = Reporter(clock=clock, email_sink=sink)
        reporter.register(
            immediate_registration(recipients=("a@x", "b@x"))
        )
        reporter.deliver(1, "Q", [notification()])
        assert sink.total_sent == 2
        assert {email.recipient for email in sink.sent} == {"a@x", "b@x"}

    def test_report_published_to_web(self, clock):
        publisher = WebPublisher()
        reporter = Reporter(clock=clock, publisher=publisher)
        reporter.register(immediate_registration())
        reporter.deliver(1, "Q", [notification("payload")])
        body = publisher.fetch(1)
        assert body.startswith("<Report>")
        assert 'data="payload"' in body
        (element,) = parse(body).root.children
        assert element.tag == "Notification"
        assert element.attributes == {"data": "payload"}

    def test_report_body_joins_texts(self, clock):
        reporter = Reporter(clock=clock)
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(terms=(CountCondition(threshold=2),)),
                report_name="Digest",
            )
        )
        reporter.deliver(1, "Q", [notification("a &<")])
        reporter.deliver(1, "Q", [notification("b")])
        assert reporter.publisher.fetch(1) == (
            '<Digest><Notification data="a &amp;&lt;"/>'
            '<Notification data="b"/></Digest>'
        )

    def test_report_query_applied(self, clock):
        seen = []

        def runner(query_text, document):
            # A fake "Xyleme Reporter" post-processor: wrap and tag.
            from repro.xmlstore.nodes import Document

            seen.append(document)
            root = ElementNode("Processed", {"query": query_text})
            return Document(root)

        reporter = Reporter(clock=clock, report_query_runner=runner)
        reporter.register(
            immediate_registration(report_query="select x from r/x x")
        )
        reporter.deliver(1, "Q", [notification()])
        body = reporter.publisher.fetch(1)
        assert body.startswith("<Processed")
        # The query runs over the report parsed back into a tree.
        (document,) = seen
        assert document.root.tag == "Report"
        (element,) = document.root.children
        assert element.attributes == {"data": "n"}

    def test_archive_clause(self, clock):
        reporter = Reporter(clock=clock)
        reporter.register(
            immediate_registration(archive_frequency="monthly")
        )
        reporter.deliver(1, "Q", [notification()])
        assert len(reporter.archive.reports_for(1)) == 1

    def test_force_report(self, reporter):
        reporter.register(
            ReportRegistration(
                subscription_id=1,
                when=ReportCondition(terms=(CountCondition(threshold=99),)),
            )
        )
        reporter.deliver(1, "Q", [notification()])
        assert reporter.force_report(1)
        assert reporter.pending_count(1) == 0
        assert not reporter.force_report(1)  # nothing left
