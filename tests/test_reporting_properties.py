"""Property tests of the Reporter's conservation invariants.

For any sequence of deliveries, time advances and ticks:

* every accepted notification appears in exactly one report (after a final
  force), and suppressed ones (past ``atmost N``) in none;
* reports are never empty;
* with ``atmost <frequency>`` there is never less than one period between
  two deliveries of the same subscription.
"""

from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_DAY, SimulatedClock
from repro.language.ast import (
    CountCondition,
    ImmediateCondition,
    PeriodicCondition,
    ReportCondition,
)
from repro.reporting import EmailSink, Reporter, ReportRegistration
from repro.xmlstore import parse

conditions = st.sampled_from(
    [
        ReportCondition(terms=(ImmediateCondition(),)),
        ReportCondition(terms=(CountCondition(threshold=3),)),
        ReportCondition(terms=(PeriodicCondition(frequency="daily"),)),
        ReportCondition(
            terms=(
                CountCondition(threshold=5),
                PeriodicCondition(frequency="daily"),
            )
        ),
    ]
)
#: ("deliver", n) | ("advance", hours) — a random reporter workload.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.integers(1, 4)),
        st.tuples(st.just("advance"), st.integers(1, 30)),
    ),
    max_size=25,
)


def run_workload(when, atmost_count, step_list):
    clock = SimulatedClock(0.0)
    reporter = Reporter(clock=clock, email_sink=EmailSink(clock=clock))
    reporter.register(
        ReportRegistration(
            subscription_id=1,
            when=when,
            atmost_count=atmost_count,
        )
    )
    sequence = 0
    for step in step_list:
        if step[0] == "deliver":
            batch = []
            for _ in range(step[1]):
                sequence += 1
                batch.append(f'<N seq="{sequence}"/>')
            reporter.deliver(1, "Q", batch)
        else:
            clock.advance(step[1] * 3600.0)
            reporter.tick()
    reporter.force_report(1)
    return reporter, sequence


def delivered_sequences(reporter):
    seen = []
    for number in range(reporter.publisher.count(1)):
        body = reporter.publisher.fetch(1, number)
        document = parse(body)
        for node in document.root.find_all("N"):
            seen.append(int(node.attributes["seq"]))
    return seen


@settings(max_examples=80, deadline=None)
@given(conditions, steps)
def test_every_accepted_notification_reported_exactly_once(when, step_list):
    reporter, total = run_workload(when, None, step_list)
    seen = delivered_sequences(reporter)
    assert sorted(seen) == list(range(1, total + 1))
    assert len(seen) == len(set(seen))


@settings(max_examples=60, deadline=None)
@given(steps, st.integers(1, 5))
def test_atmost_count_conserves_accepted_only(step_list, limit):
    when = ReportCondition(terms=(CountCondition(threshold=3),))
    reporter, total = run_workload(when, limit, step_list)
    seen = delivered_sequences(reporter)
    accepted = total - reporter.stats.notifications_suppressed
    assert len(seen) == accepted
    assert len(seen) == len(set(seen))


@settings(max_examples=60, deadline=None)
@given(conditions, steps)
def test_reports_never_empty(when, step_list):
    reporter, _ = run_workload(when, None, step_list)
    for number in range(reporter.publisher.count(1)):
        body = reporter.publisher.fetch(1, number)
        assert parse(body).root.first("N") is not None
