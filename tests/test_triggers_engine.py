import pytest

from repro.clock import SECONDS_PER_DAY, SECONDS_PER_WEEK, SimulatedClock
from repro.errors import TriggerError
from repro.language.ast import ContinuousQuery, NotificationTrigger
from repro.query import QueryEngine, QueryResult
from repro.triggers import TriggerEngine


@pytest.fixture
def warehouse(repository, clock):
    repository.store_xml(
        "http://rijks.nl/c.xml",
        "<museum><address>Amsterdam</address>"
        "<painting><title>Night Watch</title></painting></museum>",
    )
    return repository


@pytest.fixture
def deliveries():
    return []


@pytest.fixture
def engine(warehouse, clock, deliveries):
    def deliver(subscription_id, query_name, elements):
        deliveries.append((subscription_id, query_name, elements))

    return TriggerEngine(
        query_engine=QueryEngine(warehouse), deliver=deliver, clock=clock
    )


AMSTERDAM = (
    "select p/title from culture/museum m, m/painting p"
    ' where m/address contains "Amsterdam"'
)


def periodic(name="Paintings", frequency="biweekly", delta=False):
    return ContinuousQuery(
        name=name, query_text=AMSTERDAM, delta=delta, frequency=frequency
    )


class TestPeriodicEvaluation:
    def test_not_due_before_period(self, engine, clock, deliveries):
        engine.register(1, "S", periodic())
        assert engine.tick() == 0
        assert deliveries == []

    def test_due_after_period(self, engine, clock, deliveries):
        engine.register(1, "S", periodic())
        clock.advance(SECONDS_PER_WEEK / 2)
        assert engine.tick() == 1
        ((sub_id, name, elements),) = deliveries
        assert sub_id == 1 and name == "Paintings"
        assert elements[0].tag == "Paintings"
        assert "Night Watch" in elements[0].text_content()

    def test_reschedules_after_firing(self, engine, clock, deliveries):
        engine.register(1, "S", periodic(frequency="daily"))
        clock.advance(SECONDS_PER_DAY)
        engine.tick()
        engine.tick()  # same instant: nothing new
        assert len(deliveries) == 1
        clock.advance(SECONDS_PER_DAY)
        engine.tick()
        assert len(deliveries) == 2

    def test_long_gap_evaluates_once(self, engine, clock, deliveries):
        # A week-long gap for a daily query catches up with ONE evaluation.
        engine.register(1, "S", periodic(frequency="daily"))
        clock.advance(SECONDS_PER_WEEK)
        assert engine.tick() == 1


class TestDeltaQueries:
    def test_first_evaluation_full_result(self, engine, clock, deliveries):
        engine.register(1, "S", periodic(delta=True))
        clock.advance(SECONDS_PER_WEEK / 2)
        engine.tick()
        assert deliveries[0][2][0].tag == "Paintings"

    def test_unchanged_result_suppressed(self, engine, clock, deliveries):
        engine.register(1, "S", periodic(delta=True))
        clock.advance(SECONDS_PER_WEEK / 2)
        engine.tick()
        clock.advance(SECONDS_PER_WEEK / 2)
        engine.tick()
        assert len(deliveries) == 1  # no change -> no notification

    def test_changed_result_delivers_delta(
        self, engine, warehouse, clock, deliveries
    ):
        engine.register(1, "S", periodic(delta=True))
        clock.advance(SECONDS_PER_WEEK / 2)
        engine.tick()
        warehouse.store_xml(
            "http://rijks.nl/c.xml",
            "<museum><address>Amsterdam</address>"
            "<painting><title>Night Watch</title></painting>"
            "<painting><title>Milkmaid</title></painting></museum>",
        )
        clock.advance(SECONDS_PER_WEEK / 2)
        engine.tick()
        assert len(deliveries) == 2
        delta_element = deliveries[1][2][0]
        assert delta_element.tag == "Paintings-delta"
        assert delta_element.first("inserted") is not None

    def test_root_change_restarts_chain_with_full_answer(
        self, clock, deliveries
    ):
        class RenamingQueryEngine:
            """Answers under a new root element on every evaluation."""

            roots = iter(["First", "Second"])

            def evaluate(self, query_text, name):
                return QueryResult(["Night Watch"], next(self.roots))

        engine = TriggerEngine(
            query_engine=RenamingQueryEngine(),
            deliver=lambda *delivery: deliveries.append(delivery),
            clock=clock,
        )
        engine.register(1, "S", periodic(delta=True))
        for _ in range(2):
            clock.advance(SECONDS_PER_WEEK / 2)
            engine.tick()
        assert [elements[0].tag for _, _, elements in deliveries] == [
            "First", "Second",
        ]
        assert engine.answer_store.retained_versions(1, "Paintings") == [2]


class TestNotificationTriggers:
    def test_triggered_by_notification(self, engine, deliveries):
        engine.register(
            1,
            "S",
            ContinuousQuery(
                name="MyCompetitors",
                query_text=AMSTERDAM,
                trigger=NotificationTrigger(
                    subscription="S", query="ChangeInMyProducts"
                ),
            ),
        )
        assert engine.tick() == 0  # no time-based schedule
        fired = engine.notification_received("S", "ChangeInMyProducts")
        assert fired == 1
        assert len(deliveries) == 1

    def test_unrelated_notification_ignored(self, engine, deliveries):
        engine.register(
            1,
            "S",
            ContinuousQuery(
                name="Q",
                query_text=AMSTERDAM,
                trigger=NotificationTrigger(subscription="S", query="X"),
            ),
        )
        assert engine.notification_received("S", "Other") == 0
        assert deliveries == []


class TestActionsAndLifecycle:
    def test_scheduled_action_at_date(self, engine, clock):
        fired = []
        engine.schedule_action(clock.now() + 100, lambda: fired.append(1))
        engine.tick()
        assert fired == []
        clock.advance(100)
        engine.tick()
        assert fired == [1]

    def test_on_notification_action(self, engine):
        fired = []
        engine.on_notification("S", "Q", lambda: fired.append(1))
        engine.notification_received("S", "Q")
        assert fired == [1]

    def test_duplicate_registration_rejected(self, engine):
        engine.register(1, "S", periodic())
        with pytest.raises(TriggerError):
            engine.register(1, "S", periodic())

    def test_invalid_definition_rejected(self, engine):
        with pytest.raises(TriggerError):
            engine.register(
                1, "S", ContinuousQuery(name="bad", query_text=AMSTERDAM)
            )

    def test_unregister_subscription(self, engine, clock, deliveries):
        engine.register(1, "S", periodic(frequency="daily"))
        engine.unregister_subscription(1)
        clock.advance(SECONDS_PER_DAY)
        assert engine.tick() == 0

    def test_stats(self, engine, clock):
        engine.register(1, "S", periodic(frequency="daily"))
        clock.advance(SECONDS_PER_DAY)
        engine.tick()
        assert engine.stats.evaluations == 1
        assert engine.stats.notifications_emitted == 1
