import pytest

from repro.errors import TriggerError
from repro.triggers import QueryAnswerStore
from repro.xmlstore import parse, serialize


def answer(source):
    return parse(source)


class TestRecording:
    def test_first_record_is_version_one(self):
        store = QueryAnswerStore()
        version, delta = store.record(1, "Q", answer("<Q><t>a</t></Q>"))
        assert version == 1
        assert delta is None

    def test_changed_answer_bumps_version(self):
        store = QueryAnswerStore()
        store.record(1, "Q", answer("<Q><t>a</t></Q>"))
        version, delta = store.record(1, "Q", answer("<Q><t>a</t><t>b</t></Q>"))
        assert version == 2
        assert delta is not None and len(delta.inserts) == 1

    def test_unchanged_answer_keeps_version(self):
        store = QueryAnswerStore()
        store.record(1, "Q", answer("<Q><t>a</t></Q>"))
        version, delta = store.record(1, "Q", answer("<Q><t>a</t></Q>"))
        assert version == 1
        assert delta is not None and not delta

    def test_root_change_restarts_chain(self):
        store = QueryAnswerStore()
        store.record(1, "Q", answer("<Q><t>a</t></Q>"))
        version, delta = store.record(1, "Q", answer("<R><t>a</t></R>"))
        assert version == 2
        assert delta is None
        assert store.retained_versions(1, "Q") == [2]

    def test_input_document_not_mutated(self):
        store = QueryAnswerStore()
        document = answer("<Q><t>a</t></Q>")
        store.record(1, "Q", document)
        assert all(node.xid is None for node in document.preorder())


class TestReading:
    def make_store(self):
        store = QueryAnswerStore()
        store.record(1, "Q", answer("<Q><t>a</t></Q>"))
        store.record(1, "Q", answer("<Q><t>a</t><t>b</t></Q>"))
        store.record(1, "Q", answer("<Q><t>b</t></Q>"))
        return store

    def test_latest(self):
        store = self.make_store()
        assert serialize(store.latest(1, "Q")) == "<Q><t>b</t></Q>"
        assert store.latest_version(1, "Q") == 3

    def test_reconstruct_older_versions(self):
        store = self.make_store()
        assert serialize(store.version(1, "Q", 1)) == "<Q><t>a</t></Q>"
        assert serialize(store.version(1, "Q", 2)) == (
            "<Q><t>a</t><t>b</t></Q>"
        )

    def test_retained_versions(self):
        store = self.make_store()
        assert store.retained_versions(1, "Q") == [3, 2, 1]

    def test_diff_between_versions(self):
        store = self.make_store()
        delta = store.diff(1, "Q", from_version=1, to_version=3)
        assert delta
        assert len(delta.inserts) + len(delta.deletes) + len(
            delta.text_updates
        ) >= 1

    def test_retention_bounded(self):
        store = QueryAnswerStore(keep_versions=2)
        for i in range(5):
            store.record(1, "Q", answer(f"<Q><t>{i}</t></Q>"))
        retained = store.retained_versions(1, "Q")
        assert retained[0] == 5
        assert len(retained) == 2
        with pytest.raises(TriggerError):
            store.version(1, "Q", 1)

    def test_unknown_key_raises(self):
        with pytest.raises(TriggerError):
            QueryAnswerStore().latest(9, "Nope")

    def test_drop_subscription(self):
        store = self.make_store()
        store.drop(1)
        with pytest.raises(TriggerError):
            store.latest(1, "Q")


class TestEngineIntegration:
    def test_system_versions_continuous_answers(self, system, clock):
        system.feed_xml(
            "http://rijks.nl/c.xml",
            "<museum><address>Amsterdam</address>"
            "<painting><title>Night Watch</title></painting></museum>",
        )
        sub_id = system.subscribe(
            """
            subscription A
            continuous Paintings
            select p/title from culture/museum m, m/painting p
            where m/address contains "Amsterdam"
            when daily
            report when immediate
            """,
            owner_email="u@x",
        )
        system.advance_days(1)
        system.feed_xml(
            "http://rijks.nl/c.xml",
            "<museum><address>Amsterdam</address>"
            "<painting><title>Night Watch</title></painting>"
            "<painting><title>Milkmaid</title></painting></museum>",
        )
        system.advance_days(1)
        versions = system.trigger_engine.answer_store.retained_versions(sub_id, "Paintings")
        assert versions == [2, 1]
        v1 = system.trigger_engine.answer_store.version(sub_id, "Paintings", 1)
        assert "Milkmaid" not in serialize(v1)
        latest = system.trigger_engine.answer_store.latest(sub_id, "Paintings")
        assert "Milkmaid" in serialize(latest)
