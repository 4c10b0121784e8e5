"""End-to-end crash recovery: journal, kill points, exactly-once resume.

The tentpole property lives in :class:`TestExactlyOnceCrashRecovery`:
crash a fault-injected crawl at *every* kill point under several seeds,
recover into a fresh world (simulating a new process), resume — and the
final journal must hold exactly the fault-free run's delivery ids, with
``recovery.deduped == recovery.replayed`` proving no delivery was ever
journaled (or would have been emailed) twice.  The same matrix runs
again with ``batch_size=2`` and ``checkpoint_every=1``, so checkpoints
land between the batches of one ``run_stream`` call.

The satellites around it: journal/WAL unit semantics (including the
torn ``mid-checkpoint`` state), the kill-point switch itself, the
capture/restore error paths, manager wiring + lazily interned metrics,
and the CLI ``chaos --kill`` → ``resume`` round trip.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.clock import SimulatedClock
from repro.errors import RecoveryError, XMLSyntaxError
from repro.faults import (
    KILL_POINTS,
    CircuitBreaker,
    CrashPoint,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    armed_point,
    clear,
    install,
)
from repro.faults.killpoints import (
    KILL_POINT_MID_CHECKPOINT,
    KILL_POINT_POST_DELIVER,
    KILL_POINT_POST_FETCH,
    KILL_POINT_POST_MATCH,
    KILL_POINT_PRE_DELIVER,
)
from repro.minisql import Database
from repro.pipeline import SubscriptionSystem, from_pairs
from repro.recovery import RecoveryManager, RuntimeJournal
from repro.recovery.state import capture_runtime, restore_runtime
from repro.webworld import ChangeModel, SimulatedCrawler, SiteGenerator

SOURCE = """
subscription Chaos
monitoring NewCam
select X
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when count >= 3
"""

START = 990_000_000.0
END = START + 2 * 86_400
FAULT_RATE = 0.15
SITES = 5
CHECKPOINT_EVERY = 4


@pytest.fixture(autouse=True)
def _disarm_kill_switch():
    clear()
    yield
    clear()


def build_world(subs_db, seed, fault_seed=0, batch_size=4):
    clock = SimulatedClock(START)
    system = SubscriptionSystem(
        clock=clock, database=subs_db, batch_size=batch_size
    )
    dead_letters = DeadLetterQueue(metrics=system.metrics)
    system.dead_letters = dead_letters
    injector = FaultInjector(
        FaultPlan.transient_only(FAULT_RATE, seed=fault_seed),
        metrics=system.metrics,
    )
    crawler = SimulatedCrawler(
        clock=clock,
        change_model=ChangeModel(seed=seed + 1),
        seed=seed + 2,
        fault_injector=injector,
        dead_letters=dead_letters,
        metrics=system.metrics,
        breaker_factory=lambda: CircuitBreaker(failure_threshold=50),
    )
    return system, crawler


def seed_world(system, crawler, seed):
    generator = SiteGenerator(seed=seed)
    for i in range(SITES):
        crawler.add_xml_page(
            f"http://www.shop{i}.example/catalog/products.xml",
            generator.catalog(products=6),
            change_probability=0.7,
        )
    system.subscribe(SOURCE, owner_email="chaos@example.org")


def drive(system, crawler):
    """Hourly drain until END — the same loop a resumed run re-enters,
    so the regenerated window lines up with the crashed one's."""
    while system.clock.now() < END:
        system.run_stream(crawler.due_fetches())
        system.advance_time(3600)


def pages(count):
    return [
        (f"http://a.example/{i}.xml", "<r><a>hi</a></r>")
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


class TestRuntimeJournal:
    def test_append_then_load_counts_replayed(self, tmp_path):
        path = str(tmp_path / "j")
        journal = RuntimeJournal(path)
        journal.checkpoint({"k": 1}, {"a:1"}, {"a": 1}, checkpoints=1)
        journal.append_delivery("b:1")
        journal.append_delivery("c:1")
        journal.close()

        reader = RuntimeJournal(path)
        state, seen, occurrences, replayed = reader.load()
        assert state == {"k": 1}
        assert seen == {"a:1", "b:1", "c:1"}
        # Occurrences come from the snapshot ONLY: the resumed run must
        # recompute the post-checkpoint ids itself.
        assert occurrences == {"a": 1}
        assert replayed == 2
        assert reader.loaded_checkpoints == 1
        reader.close()

    def test_removed_subscription_records_are_discarded(self, tmp_path):
        path = str(tmp_path / "j")
        journal = RuntimeJournal(path)
        journal.checkpoint({}, {"a:1"}, {}, checkpoints=1)
        journal.append_delivery("a:1", 2)  # already in the snapshot
        journal.append_delivery("b:1", 1)
        journal.append_delivery("c:1", 2)
        journal._wal.append({"op": "deliver", "id": "d:1"})  # no "sub"
        journal.close()

        reader = RuntimeJournal(path)
        _, seen, _, replayed = reader.load(removed=lambda sub: sub == 2)
        assert seen == {"a:1", "b:1", "c:1", "d:1"}
        assert replayed == 2  # b:1 and d:1
        assert reader.loaded_discarded == 1  # c:1
        reader.close()

    def test_checkpoint_truncates_the_log(self, tmp_path):
        path = str(tmp_path / "j")
        journal = RuntimeJournal(path)
        journal.append_delivery("a:1")
        journal.checkpoint({}, {"a:1"}, {"a": 1}, checkpoints=1)
        journal.close()

        reader = RuntimeJournal(path)
        _, seen, _, replayed = reader.load()
        assert seen == {"a:1"}
        assert replayed == 0  # the log record was compacted away
        reader.close()

    def test_torn_mid_checkpoint_state_replays_idempotently(self, tmp_path):
        """Snapshot written, log NOT yet truncated (the ``mid-checkpoint``
        crash window): stale log ids are already in ``seen`` — no-ops."""
        path = str(tmp_path / "j")
        journal = RuntimeJournal(path)
        journal.append_delivery("a:1")
        install(KILL_POINT_MID_CHECKPOINT)
        with pytest.raises(CrashPoint):
            journal.checkpoint({"k": 2}, {"a:1"}, {"a": 1}, checkpoints=1)
        journal.close()

        reader = RuntimeJournal(path)
        state, seen, _, replayed = reader.load()
        assert state == {"k": 2}  # the new snapshot landed before the kill
        assert seen == {"a:1"}
        assert replayed == 0  # stale record absorbed, not replayed
        reader.close()

    def test_unknown_record_op_rejected(self, tmp_path):
        path = str(tmp_path / "j")
        journal = RuntimeJournal(path)
        journal._wal.append({"op": "route", "id": "x"})
        journal.close()
        reader = RuntimeJournal(path)
        with pytest.raises(RecoveryError, match="unknown journal record"):
            reader.load()
        reader.close()

    def test_exists_requires_a_snapshot(self, tmp_path):
        path = str(tmp_path / "j")
        journal = RuntimeJournal(path)
        assert not journal.exists()
        journal.append_delivery("a:1")
        assert not journal.exists()  # a bare log is not a resume point
        journal.checkpoint({}, {"a:1"}, {}, checkpoints=1)
        assert journal.exists()
        journal.close()


# ---------------------------------------------------------------------------
# The kill-point switch
# ---------------------------------------------------------------------------


class TestKillPointHarness:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown kill point"):
            install("post-office")

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError, match="at must be >= 1"):
            install(KILL_POINT_POST_FETCH, at=0)

    def test_fires_on_nth_hit_and_disarms(self):
        from repro.faults.killpoints import maybe_kill

        install(KILL_POINT_POST_MATCH, at=3)
        maybe_kill(KILL_POINT_POST_MATCH)
        maybe_kill(KILL_POINT_POST_FETCH)  # other points never count
        maybe_kill(KILL_POINT_POST_MATCH)
        with pytest.raises(CrashPoint) as crash:
            maybe_kill(KILL_POINT_POST_MATCH)
        assert crash.value.point == KILL_POINT_POST_MATCH
        assert crash.value.hit == 3
        assert armed_point() is None  # one crash per arming
        maybe_kill(KILL_POINT_POST_MATCH)  # now a no-op

    def test_crash_point_is_not_an_exception(self):
        # The pipeline's error isolation catches Exception/ReproError; a
        # simulated process death must sail through both.
        assert issubclass(CrashPoint, BaseException)
        assert not issubclass(CrashPoint, Exception)

    def test_crash_sails_through_the_error_slot(self, tmp_path):
        subs = Database(path=str(tmp_path / "s.subs"))
        system, crawler = build_world(subs, seed=7)
        seed_world(system, crawler, seed=7)
        install(KILL_POINT_POST_MATCH, at=1)
        with pytest.raises(CrashPoint):
            drive(system, crawler)
        # The document was NOT parked as a rejection.
        assert system.documents_rejected == 0


# ---------------------------------------------------------------------------
# Capture/restore error paths
# ---------------------------------------------------------------------------


class TestStateErrors:
    def _fresh_pair(self, tmp_path, seed=7):
        source = Database(path=str(tmp_path / "a.subs"))
        system, crawler = build_world(source, seed=seed)
        seed_world(system, crawler, seed=seed)
        return system, crawler

    def test_version_mismatch_rejected(self, tmp_path):
        system, crawler = self._fresh_pair(tmp_path)
        state = capture_runtime(system, crawler=crawler)
        state["version"] = 999
        fresh = SubscriptionSystem(clock=SimulatedClock(START))
        with pytest.raises(RecoveryError, match="version"):
            restore_runtime(fresh, state)

    def test_clock_rewind_rejected(self, tmp_path):
        system, crawler = self._fresh_pair(tmp_path)
        state = capture_runtime(system, crawler=crawler)
        fresh = SubscriptionSystem(clock=SimulatedClock(START + 1))
        with pytest.raises(RecoveryError, match="rewind"):
            restore_runtime(fresh, state)

    def test_non_empty_repository_rejected(self, tmp_path):
        system, crawler = self._fresh_pair(tmp_path)
        drive(system, crawler)
        state = capture_runtime(system)
        # The captured system itself is not a restore target.
        with pytest.raises(RecoveryError, match="empty repository"):
            restore_runtime(system, state)

    def test_missing_report_buffer_rejected(self, tmp_path):
        system, crawler = self._fresh_pair(tmp_path)
        state = capture_runtime(system)
        # A fresh system that never recovered the subscription database
        # has no buffer for the checkpointed subscription.
        fresh = SubscriptionSystem(clock=SimulatedClock(START))
        with pytest.raises(RecoveryError, match="no report buffer"):
            restore_runtime(fresh, state)

    def test_unsubscribe_after_the_checkpoint_drops_its_buffer(
        self, tmp_path
    ):
        """A subscription removed after the last checkpoint is gone from
        the recovered database, which still knows it issued the id: its
        checkpointed buffer is dropped, as ``Reporter.unregister`` would
        have dropped it."""
        subs_path = str(tmp_path / "a.subs")
        journal = str(tmp_path / "a.journal")
        system = SubscriptionSystem(
            clock=SimulatedClock(START), database=Database(path=subs_path)
        )
        keep = system.subscribe(
            SOURCE.replace("Chaos", "Keep"), owner_email="k@example.org"
        )
        gone = system.subscribe(
            SOURCE.replace("Chaos", "Gone"), owner_email="g@example.org"
        )
        system.feed_xml(
            "http://www.shop0.example/c.xml",
            "<catalog><Product>camera</Product></catalog>",
        )
        system.enable_recovery(journal)
        system.unsubscribe(gone)

        fresh = SubscriptionSystem(
            clock=SimulatedClock(START), database=Database.recover(subs_path)
        )
        fresh.recover_runtime(journal)
        assert fresh.reporter.pending_count(keep) == 1
        assert not fresh.reporter.registered(gone)
        later = fresh.subscribe(
            SOURCE.replace("Chaos", "Later"),
            owner_email="l@example.org",
            privileged=True,
        )
        assert later > gone

    def test_custom_element_factory_uncapturable(self, tmp_path):
        from repro.xmlstore.nodes import ElementNode

        system, _ = self._fresh_pair(tmp_path)
        clock = SimulatedClock(START)
        crawler = SimulatedCrawler(
            clock=clock,
            change_model=ChangeModel(
                seed=1, element_factory=lambda: ElementNode("custom")
            ),
        )
        with pytest.raises(RecoveryError, match="element_factory"):
            capture_runtime(system, crawler=crawler)

    def test_checkpoint_without_crawler_cannot_restore_one(self, tmp_path):
        system, crawler = self._fresh_pair(tmp_path)
        state = capture_runtime(system)  # no crawler section
        fresh_subs = Database(path=str(tmp_path / "b.subs"))
        fresh, fresh_crawler = build_world(fresh_subs, seed=7)
        seed_world(fresh, fresh_crawler, seed=7)
        with pytest.raises(RecoveryError, match="no crawler state"):
            restore_runtime(fresh, state, crawler=fresh_crawler)


class TestCrawlerState:
    def test_restored_crawler_yields_identical_fetches(self):
        """A crawler restored from its JSON-encoded ``state_dict`` —
        XML and HTML pages, retry states and breakers under fault
        injection — yields exactly the fetches the original yields."""
        system, crawler = build_world(Database(), seed=3, fault_seed=2)
        seed_world(system, crawler, seed=3)
        crawler.add_html_page(
            "http://www.shop9.example/news.html",
            "<html><body><p>news</p></body></html>",
            change_probability=0.9,
        )
        list(crawler.due_fetches())
        state = json.loads(json.dumps(crawler.state_dict()))
        # Fault seed 2 fails two first fetches: both await a retry.
        assert state["retry_states"] and state["breakers"]

        _, twin = build_world(Database(), seed=3, fault_seed=2)
        twin.clock.set_time(system.clock.now())
        twin.restore_state(state)
        for _ in range(48):
            assert list(twin.due_fetches()) == list(crawler.due_fetches())
            system.clock.advance(3600)
            twin.clock.advance(3600)
        assert twin.state_dict() == crawler.state_dict()


# ---------------------------------------------------------------------------
# Manager wiring + metrics
# ---------------------------------------------------------------------------


class TestRecoveryManager:
    def test_checkpoint_every_validated(self, tmp_path):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        with pytest.raises(RecoveryError, match="checkpoint_every"):
            RecoveryManager(system, str(tmp_path / "j"), checkpoint_every=0)

    def test_second_manager_rejected(self, tmp_path):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        system.enable_recovery(str(tmp_path / "a"))
        with pytest.raises(RecoveryError, match="already has"):
            system.enable_recovery(str(tmp_path / "b"))

    def test_enable_recovery_writes_an_initial_checkpoint(self, tmp_path):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        manager = system.enable_recovery(str(tmp_path / "j"))
        assert manager.checkpoints == 1
        assert manager.journal.exists()
        assert os.path.exists(str(tmp_path / "j") + ".snapshot")

    def test_recover_without_a_journal_rejected(self, tmp_path):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        with pytest.raises(RecoveryError, match="nothing to recover"):
            system.recover_runtime(str(tmp_path / "missing"))

    def test_recovery_metrics_interned_lazily(self, tmp_path):
        """Satellite: a system that never enables recovery keeps a
        byte-identical metric snapshot — no recovery.* series appear."""
        plain = SubscriptionSystem(clock=SimulatedClock(START))
        plain.feed_xml("http://a.example/x.xml", "<r><a>hi</a></r>")
        snapshot = plain.metrics_snapshot()
        for name in list(snapshot["counters"]) + list(snapshot["gauges"]):
            assert not name.startswith("recovery."), name

        journaled = SubscriptionSystem(clock=SimulatedClock(START))
        journaled.enable_recovery(str(tmp_path / "j"))
        counters = journaled.metrics_snapshot()["counters"]
        assert counters["recovery.checkpoints"] == 1
        assert counters["recovery.deduped"] == 0
        assert counters["recovery.replayed"] == 0

    def test_snapshot_bytes_gauge_tracks_the_last_checkpoint(self, tmp_path):
        path = str(tmp_path / "j")
        system = SubscriptionSystem(clock=SimulatedClock(START), batch_size=2)
        manager = system.enable_recovery(path, checkpoint_every=1)

        def gauge():
            return system.metrics_snapshot()["gauges"]["recovery.snapshot_bytes"]

        first = gauge()
        assert first == os.path.getsize(path + ".snapshot")
        system.run_stream(from_pairs(pages(4)))
        assert manager.checkpoints == 3
        assert gauge() == os.path.getsize(path + ".snapshot") > first

    def test_checkpoint_cadence_counts_batches(self, tmp_path):
        system = SubscriptionSystem(
            clock=SimulatedClock(START), batch_size=2
        )
        manager = system.enable_recovery(
            str(tmp_path / "j"), checkpoint_every=2
        )
        system.run_stream(from_pairs(pages(8)))  # 4 batches -> 2 checkpoints
        assert manager.checkpoints == 3  # initial + 2
        # A bare feed_batch is not a stream batch and never checkpoints.
        for _ in range(2):
            system.feed_batch(from_pairs(pages(2)))
        assert manager.checkpoints == 3

    def test_mid_stream_checkpoint_after_each_batch(self, tmp_path):
        system = SubscriptionSystem(
            clock=SimulatedClock(START), batch_size=2
        )
        manager = system.enable_recovery(
            str(tmp_path / "j"), checkpoint_every=1
        )
        returned = []
        inside = []
        feed_batch = system.feed_batch

        def spy_feed_batch(batch, skip_malformed=True):
            inside.append(True)
            try:
                return feed_batch(batch, skip_malformed=skip_malformed)
            finally:
                inside.pop()
                returned.append(len(batch))

        taken = []
        checkpoint = manager.checkpoint

        def spy_checkpoint():
            taken.append((bool(inside), len(returned)))
            checkpoint()

        system.feed_batch = spy_feed_batch
        manager.checkpoint = spy_checkpoint
        system.run_stream(from_pairs(pages(6)))
        # One checkpoint per batch, each after its feed_batch returned:
        # the first two land between batches of the same stream.
        assert taken == [(False, 1), (False, 2), (False, 3)]
        assert manager.checkpoints == 4  # initial + 3

    def test_crash_mid_stream_keeps_checkpoints_of_fed_batches(
        self, tmp_path
    ):
        system = SubscriptionSystem(
            clock=SimulatedClock(START), batch_size=2
        )
        manager = system.enable_recovery(
            str(tmp_path / "j"), checkpoint_every=1
        )
        install(KILL_POINT_POST_FETCH, at=3)
        with pytest.raises(CrashPoint):
            system.run_stream(from_pairs(pages(6)))
        # The initial checkpoint plus one per batch fed before the crash
        # pulled the third.
        assert manager.checkpoints == 3
        assert system.documents_fed == 4

    def test_repeated_payloads_get_distinct_ids(self, tmp_path):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        manager = system.enable_recovery(str(tmp_path / "j"))
        manager._on_deliver(1, "Q", [])
        manager._on_deliver(1, "Q", [])
        assert len(manager.seen) == 2
        digests = {i.split(":")[0] for i in manager.seen}
        occurrences = {i.split(":")[1] for i in manager.seen}
        assert len(digests) == 1  # same content -> same digest
        assert occurrences == {"1", "2"}  # ...distinguished by occurrence

    def test_occurrences_cover_one_instant(self, tmp_path):
        """A digest hashes the delivery instant, so only the current
        instant's counters are kept; the snapshot records that instant
        and a resumed manager recomputes the same ids from it."""
        from repro.minisql.wal import read_snapshot, write_snapshot

        path = str(tmp_path / "j")
        clock = SimulatedClock(START)
        system = SubscriptionSystem(clock=clock)
        manager = system.enable_recovery(path)
        manager._on_deliver(1, "Q", [])
        manager._on_deliver(1, "Q", [])
        assert list(manager.occurrences.values()) == [2]
        clock.advance(60)
        manager.checkpoint()
        snapshot = read_snapshot(path)
        assert snapshot["occurrences_at"] == START
        assert list(snapshot["occurrences"].values()) == [2]
        manager._on_deliver(1, "Q", [])
        assert list(manager.occurrences.values()) == [1]
        assert manager.occurrences_at == START + 60
        manager.close()

        fresh = SubscriptionSystem(clock=SimulatedClock(START))
        resumed = fresh.recover_runtime(path)
        assert resumed.occurrences_at == START
        assert resumed.replayed == 1
        resumed._on_deliver(1, "Q", [])
        assert resumed.seen == manager.seen  # recomputed the same id
        assert resumed.deduped == 1
        resumed.close()

        # A snapshot that does not record the instant is rejected.
        del snapshot["occurrences_at"]
        write_snapshot(path, snapshot)
        with pytest.raises(RecoveryError, match="instant"):
            RuntimeJournal(path).load()


# ---------------------------------------------------------------------------
# Group commit: one fsync per batch
# ---------------------------------------------------------------------------


def camera_pages(prefix, count):
    return [
        (
            f"http://www.shop{prefix}.example/{i}.xml",
            f"<catalog><Product>camera {i}</Product></catalog>",
        )
        for i in range(count)
    ]


def camera_system(tmp_path, subscriptions=3):
    """A journaled system whose every camera page is delivered once per
    subscription."""
    system = SubscriptionSystem(clock=SimulatedClock(START))
    for n in range(subscriptions):
        system.subscribe(
            SOURCE.replace("Chaos", f"Chaos{n}"), owner_email="c@example.org"
        )
    manager = system.enable_recovery(str(tmp_path / "j"))
    return system, manager


def logged_ids(path):
    return [record["id"] for record in RuntimeJournal(path)._wal.records()]


@pytest.fixture
def syncs(monkeypatch):
    """The file descriptors of every ``os.fsync`` call from now on."""
    calls = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
    return calls


class TestGroupCommit:
    def test_one_fsync_per_feed_batch(self, tmp_path, syncs):
        system, manager = camera_system(tmp_path)
        for index, size in enumerate((1, 2, 5)):
            syncs.clear()
            before = len(manager.seen)
            system.feed_batch(from_pairs(camera_pages(index, size)))
            assert len(manager.seen) - before == 3 * size
            assert len(syncs) == 1
            assert set(logged_ids(str(tmp_path / "j"))) == manager.seen
        syncs.clear()
        system.feed_xml(*camera_pages(9, 1)[0])
        assert len(syncs) == 1
        # A batch (or a clock advance) that delivers nothing commits
        # nothing.
        syncs.clear()
        system.feed_batch(
            from_pairs([("http://other.example/x.xml", "<r>camera</r>")])
        )
        system.advance_time(3600)
        assert syncs == []

    def test_trigger_deliveries_commit_when_advance_time_returns(
        self, tmp_path, syncs
    ):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        system.feed_xml(
            "http://rijks.example/c.xml",
            "<museum><address>Amsterdam</address>"
            "<painting><title>Night Watch</title></painting></museum>",
        )
        for name in ("A", "B"):
            system.subscribe(
                f"subscription {name}\n"
                "continuous Paintings\n"
                "select p/title from culture/museum m, m/painting p\n"
                'where m/address contains "Amsterdam"\n'
                "try biweekly\n"
                "report when immediate\n",
                owner_email="u@example.org",
            )
        manager = system.enable_recovery(str(tmp_path / "j"))
        syncs.clear()
        system.advance_days(4)  # 96 hourly ticks, both queries fire once
        assert len(manager.seen) == 2
        assert len(syncs) == 1
        assert set(logged_ids(str(tmp_path / "j"))) == manager.seen

    def test_crashed_batch_leaves_no_record(self, tmp_path):
        """A crash mid-batch loses the batch's queued ids, and the
        crashed system, once collected, writes none of them into the
        journal a resumed system has opened since."""
        import gc

        path = str(tmp_path / "j")
        system, manager = camera_system(tmp_path)
        system.feed_batch(from_pairs(camera_pages(0, 2)))
        committed = set(manager.seen)
        install(KILL_POINT_POST_DELIVER, at=4)
        with pytest.raises(CrashPoint):
            system.feed_batch(from_pairs(camera_pages(1, 3)))
        assert len(manager.seen) == len(committed) + 4
        assert set(logged_ids(path)) == committed

        resumed = RuntimeJournal(path)
        resumed.append_delivery("resumed:1")
        resumed.commit()
        # Finalising the crashed system closes its log file at some
        # point; what that file object holds must not reach the disk.
        manager.journal._wal.close()
        del system, manager
        gc.collect()
        resumed.close()
        assert set(logged_ids(path)) == committed | {"resumed:1"}

    def test_strict_batch_commits_before_its_first_rejection(self, tmp_path):
        """Under ``skip_malformed=False`` the pages fed before the bad one
        stay committed in the journal file when the error propagates."""
        path = str(tmp_path / "j")
        system, manager = camera_system(tmp_path)
        batch = camera_pages(0, 2) + [
            ("http://www.shop0.example/bad.xml", "<r><boom>")
        ] + camera_pages(1, 1)
        with pytest.raises(XMLSyntaxError):
            system.feed_batch(from_pairs(batch), skip_malformed=False)
        assert system.documents_fed == 2
        assert len(manager.seen) == 6
        assert set(logged_ids(path)) == manager.seen

    def test_post_match_crash_leaves_the_batch_uncommitted(self, tmp_path):
        path = str(tmp_path / "j")
        system, manager = camera_system(tmp_path)
        system.feed_batch(from_pairs(camera_pages(0, 2)))
        committed = set(manager.seen)
        install(KILL_POINT_POST_MATCH, at=2)
        with pytest.raises(CrashPoint):
            system.feed_batch(from_pairs(camera_pages(1, 3)))
        assert len(manager.seen) == len(committed) + 6
        assert set(logged_ids(path)) == committed

    def test_checkpoint_drops_the_queue_its_snapshot_covers(self, tmp_path):
        path = str(tmp_path / "j")
        system, manager = camera_system(tmp_path)
        system.reporter.delivery_hook(1, "Q", [])  # queued, not committed
        manager.checkpoint()
        manager.close()
        assert logged_ids(path) == []
        _, seen, _, replayed = RuntimeJournal(path).load()
        assert seen == manager.seen
        assert replayed == 0


# ---------------------------------------------------------------------------
# The tentpole property: crash anywhere, resume, exactly-once
# ---------------------------------------------------------------------------

#: Hit counts chosen so every point fires under every seed: early enough
#: to exist in a 2-day run, late enough to leave real state behind.
CRASH_MATRIX = [
    (KILL_POINT_POST_FETCH, 3),
    (KILL_POINT_POST_MATCH, 2),
    (KILL_POINT_PRE_DELIVER, 1),
    (KILL_POINT_POST_DELIVER, 2),
    # The switch is armed after enable_recovery's initial checkpoint, so
    # hit 1 is the first *mid-run* checkpoint (after checkpoint_every
    # batches) — the torn snapshot-written/log-not-truncated window.
    (KILL_POINT_MID_CHECKPOINT, 1),
]

SEEDS = (7, 11, 23)

_baselines: dict = {}


def fault_free_deliveries(tmp_path_factory, seed):
    """The crash-free run's delivery-id set (cached per seed)."""
    if seed not in _baselines:
        tmp = tmp_path_factory.mktemp(f"baseline-{seed}")
        subs = Database(path=str(tmp / "base.subs"))
        system, crawler = build_world(subs, seed=seed)
        seed_world(system, crawler, seed=seed)
        manager = system.enable_recovery(
            str(tmp / "base.journal"),
            crawler=crawler,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        drive(system, crawler)
        assert manager.seen, "baseline produced no deliveries"
        assert manager.deduped == 0
        _baselines[seed] = frozenset(manager.seen)
    return _baselines[seed]


class MidStreamCheckpointSpy:
    """Counts checkpoints taken between two batches of one
    ``run_stream`` call."""

    def __init__(self, system, manager):
        self.between_batches = 0
        self._in_stream = False
        self._after_checkpoint = False
        run_stream = system.run_stream
        feed_batch = system.feed_batch
        checkpoint = manager.checkpoint

        def spy_run_stream(*args, **kwargs):
            self._in_stream, self._after_checkpoint = True, False
            try:
                return run_stream(*args, **kwargs)
            finally:
                self._in_stream = False

        def spy_feed_batch(*args, **kwargs):
            if self._after_checkpoint:
                self.between_batches += 1
                self._after_checkpoint = False
            return feed_batch(*args, **kwargs)

        def spy_checkpoint():
            checkpoint()
            self._after_checkpoint = self._in_stream

        system.run_stream = spy_run_stream
        system.feed_batch = spy_feed_batch
        manager.checkpoint = spy_checkpoint


class TestExactlyOnceCrashRecovery:
    @pytest.mark.parametrize("point,at", CRASH_MATRIX)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_recover_resume_is_exactly_once(
        self, tmp_path, tmp_path_factory, point, at, seed
    ):
        baseline = fault_free_deliveries(tmp_path_factory, seed)
        subs_path = str(tmp_path / "run.subs")
        journal = str(tmp_path / "run.journal")

        # -- the doomed run -------------------------------------------------
        system, crawler = build_world(Database(path=subs_path), seed=seed)
        seed_world(system, crawler, seed=seed)
        system.enable_recovery(
            journal, crawler=crawler, checkpoint_every=CHECKPOINT_EVERY
        )
        install(point, at=at)
        with pytest.raises(CrashPoint) as crash:
            drive(system, crawler)
        assert crash.value.point == point

        # -- a "fresh process": rebuild everything from disk ----------------
        recovered_subs = Database.recover(subs_path)
        fresh, fresh_crawler = build_world(recovered_subs, seed=seed)
        manager = fresh.recover_runtime(journal, crawler=fresh_crawler)
        assert fresh.clock.now() <= END
        drive(fresh, fresh_crawler)

        # -- the exactly-once invariant -------------------------------------
        assert manager.deduped == manager.replayed
        assert set(manager.seen) == set(baseline), (
            f"{point}@{at} seed={seed}: "
            f"missing={len(baseline - manager.seen)} "
            f"extra={len(manager.seen - baseline)}"
        )
        counters = fresh.metrics_snapshot()["counters"]
        assert counters["recovery.deduped"] == manager.deduped
        assert counters["recovery.replayed"] == manager.replayed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_journal_on_disk_never_holds_a_duplicate(
        self, tmp_path, tmp_path_factory, seed
    ):
        """After a post-deliver crash + resume, the on-disk journal
        (snapshot seen-set plus log records) has no repeated id."""
        journal = str(tmp_path / "run.journal")
        system, crawler = build_world(
            Database(path=str(tmp_path / "run.subs")), seed=seed
        )
        seed_world(system, crawler, seed=seed)
        system.enable_recovery(
            journal, crawler=crawler, checkpoint_every=CHECKPOINT_EVERY
        )
        install(KILL_POINT_POST_DELIVER, at=1)
        with pytest.raises(CrashPoint):
            drive(system, crawler)

        fresh, fresh_crawler = build_world(
            Database.recover(str(tmp_path / "run.subs")), seed=seed
        )
        manager = fresh.recover_runtime(journal, crawler=fresh_crawler)
        drive(fresh, fresh_crawler)
        manager.close()

        from repro.minisql.wal import read_snapshot

        snapshot = read_snapshot(journal)
        ids = list(snapshot["seen"])
        with open(journal, encoding="utf-8") as handle:
            import json

            for line in handle:
                if line.strip():
                    ids.append(json.loads(line)["id"])
        assert len(ids) == len(set(ids)), "journal holds a duplicate id"
        assert set(ids) == set(
            fault_free_deliveries(tmp_path_factory, seed)
        )

    @pytest.mark.parametrize("point,at", CRASH_MATRIX)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_stream_checkpoints_are_exactly_once(
        self, tmp_path, tmp_path_factory, point, at, seed
    ):
        """The same property with ``batch_size=2`` and
        ``checkpoint_every=1``: every hourly stream of three or more
        fetches is checkpointed between two of its batches, so crashes
        and resumes happen mid-stream."""
        baseline = fault_free_deliveries(tmp_path_factory, seed)
        subs_path = str(tmp_path / "run.subs")
        journal = str(tmp_path / "run.journal")

        system, crawler = build_world(
            Database(path=subs_path), seed=seed, batch_size=2
        )
        seed_world(system, crawler, seed=seed)
        doomed = system.enable_recovery(
            journal, crawler=crawler, checkpoint_every=1
        )
        spy = MidStreamCheckpointSpy(system, doomed)
        install(point, at=at)
        with pytest.raises(CrashPoint) as crash:
            drive(system, crawler)
        assert crash.value.point == point

        fresh, fresh_crawler = build_world(
            Database.recover(subs_path), seed=seed, batch_size=2
        )
        manager = fresh.recover_runtime(
            journal, crawler=fresh_crawler, checkpoint_every=1
        )
        resumed_spy = MidStreamCheckpointSpy(fresh, manager)
        drive(fresh, fresh_crawler)

        assert spy.between_batches + resumed_spy.between_batches >= 1
        assert manager.deduped == manager.replayed
        assert set(manager.seen) == set(baseline), (
            f"{point}@{at} seed={seed}: "
            f"missing={len(baseline - manager.seen)} "
            f"extra={len(manager.seen - baseline)}"
        )


#: A subscription notified of every change to a shop page.
TOUCHED = """
subscription {name}
monitoring Touched
select <Touched url=URL/>
where URL extends "http://www.shop"
  and modified self
report when count >= 1
"""

#: Hours into the run of the explicit checkpoint and of the unsubscribe
#: that follows it (the crash comes at the next delivery after that).
CHECKPOINT_HOUR = 6
UNSUBSCRIBE_HOUR = 12


def touched_world(subs_path, seed, recover=False):
    """The kill-point world with every page crawled hourly and two
    :data:`TOUCHED` subscriptions, ``Keep`` and ``Gone``; returns the
    system, the crawler and ``Gone``'s id (``None`` when ``recover``:
    the pages and subscriptions come back from disk)."""
    database = Database.recover(subs_path) if recover else Database(path=subs_path)
    system, crawler = build_world(database, seed=seed)
    if recover:
        return system, crawler, None
    seed_world(system, crawler, seed=seed)
    for i in range(SITES):
        crawler.set_interval(
            f"http://www.shop{i}.example/catalog/products.xml", 3600
        )
    system.subscribe(TOUCHED.format(name="Keep"), owner_email="k@example.org")
    gone = system.subscribe(
        TOUCHED.format(name="Gone"), owner_email="g@example.org"
    )
    return system, crawler, gone


def drive_and_unsubscribe(system, crawler, gone, manager=None, crash=False):
    """:func:`drive`, plus one unsubscribe of ``gone`` at
    ``UNSUBSCRIBE_HOUR`` (skipped once the store has removed it).  With
    ``manager``, a checkpoint is taken at ``CHECKPOINT_HOUR``; with
    ``crash``, the next delivery after the unsubscribe crashes."""
    while system.clock.now() < END:
        hour = (system.clock.now() - START) / 3600
        if manager is not None and hour == CHECKPOINT_HOUR:
            manager.checkpoint()
        if hour >= UNSUBSCRIBE_HOUR and not system.manager.was_removed(gone):
            system.unsubscribe(gone)
            if crash:
                install(KILL_POINT_POST_DELIVER, at=1)
        system.run_stream(crawler.due_fetches())
        system.advance_time(3600)


class TestUnsubscribeBeforeTheCrash:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_removed_subscription_window_is_discarded_not_replayed(
        self, tmp_path, seed
    ):
        """A subscription that delivers after the last checkpoint and is
        then removed before the crash: its journaled deliveries cannot be
        regenerated by the resumed run, so they count as discarded, and
        ``deduped == replayed`` holds for the rest of the window."""
        # -- the fault-free run ---------------------------------------------
        system, crawler, gone = touched_world(str(tmp_path / "base.subs"), seed)
        baseline = system.enable_recovery(
            str(tmp_path / "base.journal"),
            crawler=crawler,
            checkpoint_every=10**6,
        )
        drive_and_unsubscribe(system, crawler, gone)
        assert baseline.deduped == 0

        # -- the doomed run -------------------------------------------------
        subs_path = str(tmp_path / "run.subs")
        journal = str(tmp_path / "run.journal")
        system, crawler, gone = touched_world(subs_path, seed)
        doomed = system.enable_recovery(
            journal, crawler=crawler, checkpoint_every=10**6
        )
        with pytest.raises(CrashPoint):
            drive_and_unsubscribe(
                system, crawler, gone, manager=doomed, crash=True
            )
        assert system.manager.was_removed(gone)

        # -- resume in a fresh world ------------------------------------------
        fresh, fresh_crawler, _ = touched_world(subs_path, seed, recover=True)
        manager = fresh.recover_runtime(journal, crawler=fresh_crawler)
        assert fresh.clock.now() == START + CHECKPOINT_HOUR * 3600
        assert fresh.manager.was_removed(gone)
        drive_and_unsubscribe(fresh, fresh_crawler, gone)

        assert manager.discarded > 0, "Gone never delivered in the window"
        assert manager.replayed > 0
        assert manager.deduped == manager.replayed
        assert manager.seen == baseline.seen
        counters = fresh.metrics_snapshot()["counters"]
        assert counters["recovery.discarded"] == manager.discarded
        assert counters["recovery.replayed"] == manager.replayed

# ---------------------------------------------------------------------------
# The CLI round trip
# ---------------------------------------------------------------------------


class TestCliCrashResume:
    def test_chaos_kill_then_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.minisql.wal import read_snapshot

        journal = str(tmp_path / "cli.journal")
        args = [
            "chaos",
            "--sites", "3",
            "--days", "2",
            "--fault-rate", "0.15",
            "--seed", "7",
            "--journal", journal,
            "--checkpoint-every", "4",
            "--batch-size", "8",
        ]
        assert main(args + ["--kill", "post-deliver:2"]) == 42
        out = capsys.readouterr().out
        assert "crashed at kill point post-deliver (hit 2)" in out
        # The checkpoint carries the batch size the resume rebuilds.
        config = read_snapshot(journal)["state"]["metadata"]["cli"]
        assert config["batch_size"] == 8

        assert main(["resume", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "resume: OK (exactly-once delivery held)" in out

    def test_resume_accepts_a_checkpoint_with_queue_depth(
        self, tmp_path, capsys
    ):
        """Checkpoints written while the CLI still had ``--queue-depth``
        carry a ``queue_depth`` key; ``resume`` ignores it."""
        from repro.cli import main
        from repro.minisql.wal import read_snapshot, write_snapshot

        journal = str(tmp_path / "old.journal")
        code = main([
            "chaos", "--sites", "3", "--days", "2", "--fault-rate", "0.15",
            "--seed", "7", "--journal", journal, "--checkpoint-every", "4",
            "--batch-size", "8", "--kill", "post-deliver:2",
        ])
        assert code == 42
        snapshot = read_snapshot(journal)
        config = snapshot["state"]["metadata"]["cli"]
        assert "queue_depth" not in config
        config["queue_depth"] = 16
        write_snapshot(journal, snapshot)
        capsys.readouterr()

        assert main(["resume", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "resume: OK (exactly-once delivery held)" in out

    def test_kill_flag_requires_journal(self, capsys):
        from repro.cli import main

        code = main(
            ["chaos", "--sites", "2", "--days", "1", "--kill", "post-fetch"]
        )
        assert code == 2
        assert "--kill requires --journal" in capsys.readouterr().err

    def test_resume_without_snapshot_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["resume", "--journal", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

