"""T-rep — Reporter throughput (Section 3).

Paper: "In our implementation, the Reporter supports hundreds of thousands
of emails per day on a single PC.  This limitation is due to the UNIX
send-mail daemon implementation."  And: the subscription system processes
"over 2.4 million notifications per day ... and hundreds of thousands of
emails".

Reproduction: flood the Reporter with notification batches across many
subscriptions with immediate report conditions and project the measured
rates to a day.  The sendmail bottleneck is modelled by the email sink's
``daily_capacity``; we also measure the raw (unthrottled) rate.
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import print_series
from repro.clock import SimulatedClock
from repro.language.ast import (
    CountCondition,
    ImmediateCondition,
    ReportCondition,
)
from repro.reporting import EmailSink, Reporter, ReportRegistration

SUBSCRIPTIONS = 200
NOTIFICATIONS = 5_000

_results: dict = {}


def _make_reporter(immediate=True):
    clock = SimulatedClock(0.0)
    sink = EmailSink(clock=clock, daily_capacity=10**9, keep_messages=10)
    reporter = Reporter(clock=clock, email_sink=sink)
    for sub_id in range(1, SUBSCRIPTIONS + 1):
        terms = (
            (ImmediateCondition(),)
            if immediate
            else (CountCondition(threshold=20),)
        )
        reporter.register(
            ReportRegistration(
                subscription_id=sub_id,
                when=ReportCondition(terms=terms),
                recipients=(f"user{sub_id}@example.org",),
            )
        )
    return reporter


def _flood(reporter, count):
    element_count = 0
    for i in range(count):
        sub_id = (i % SUBSCRIPTIONS) + 1
        reporter.deliver(sub_id, "Q", [f'<Notification n="{i}"/>'])
        element_count += 1
    return element_count


def test_immediate_report_throughput(benchmark):
    def run():
        reporter = _make_reporter(immediate=True)
        _flood(reporter, NOTIFICATIONS)
        return reporter

    reporter = benchmark.pedantic(run, rounds=3, iterations=1)
    start = time.perf_counter()
    reporter = _make_reporter(immediate=True)
    _flood(reporter, NOTIFICATIONS)
    elapsed = time.perf_counter() - start
    _results["immediate_notif_per_s"] = NOTIFICATIONS / elapsed
    _results["immediate_emails"] = reporter.email_sink.total_sent
    _results["immediate_emails_per_s"] = (
        reporter.email_sink.total_sent / elapsed
    )


def test_batched_report_throughput(benchmark):
    def run():
        reporter = _make_reporter(immediate=False)
        _flood(reporter, NOTIFICATIONS)
        return reporter

    benchmark.pedantic(run, rounds=3, iterations=1)
    start = time.perf_counter()
    reporter = _make_reporter(immediate=False)
    _flood(reporter, NOTIFICATIONS)
    elapsed = time.perf_counter() - start
    _results["batched_notif_per_s"] = NOTIFICATIONS / elapsed


def test_reporter_report_and_claims(benchmark):
    benchmark(lambda: None)
    immediate_day = _results.get("immediate_notif_per_s", 0) * 86_400
    email_day = _results.get("immediate_emails_per_s", 0) * 86_400
    batched_day = _results.get("batched_notif_per_s", 0) * 86_400
    rows = [
        f"immediate reports : "
        f"{_results.get('immediate_notif_per_s', 0):10,.0f} notif/s "
        f"({immediate_day:15,.0f}/day)",
        f"emails            : "
        f"{_results.get('immediate_emails_per_s', 0):10,.0f} emails/s "
        f"({email_day:15,.0f}/day)",
        f"count-20 batching : "
        f"{_results.get('batched_notif_per_s', 0):10,.0f} notif/s "
        f"({batched_day:15,.0f}/day)",
    ]
    print_series(
        "T-rep: Reporter throughput",
        f"{SUBSCRIPTIONS} subscriptions, {NOTIFICATIONS} notifications",
        rows,
    )
    # Paper: > 2.4M notifications/day through the subscription system.
    assert batched_day > 2_400_000
    # Paper: hundreds of thousands of emails per day.
    assert email_day > 200_000
