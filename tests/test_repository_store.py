import pytest
from hypothesis import given, settings, strategies as st

import repro.repository.store as store_module
from repro.clock import SimulatedClock
from repro.diff import DOC_NEW, DOC_UNCHANGED, DOC_UPDATED
from repro.errors import DocumentNotFound, RepositoryError, XMLSyntaxError
from repro.pipeline import Fetch, SubscriptionSystem
from repro.repository import Repository
from repro.xmlstore import parse, serialize

from .test_diff_properties import documents, edit_seeds, mutate


class TestStoreXML:
    def test_first_store_is_new(self, repository):
        outcome = repository.store_xml("http://x/a.xml", "<r><a/></r>")
        assert outcome.status == DOC_NEW
        assert outcome.meta.version == 1
        assert outcome.is_new and outcome.changed

    def test_unchanged_refetch(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<r><a/></r>")
        clock.advance(10)
        outcome = repository.store_xml("http://x/a.xml", "<r><a/></r>")
        assert outcome.status == DOC_UNCHANGED
        assert outcome.meta.version == 1
        assert not outcome.changed

    def test_updated_refetch_produces_delta(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<r><a/></r>")
        clock.advance(10)
        outcome = repository.store_xml("http://x/a.xml", "<r><a/><b/></r>")
        assert outcome.status == DOC_UPDATED
        assert outcome.meta.version == 2
        assert outcome.delta is not None and len(outcome.delta.inserts) == 1
        assert outcome.old_document is not None

    def test_last_accessed_and_updated_tracked(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<r/>")
        first_time = clock.now()
        clock.advance(100)
        repository.store_xml("http://x/a.xml", "<r/>")
        meta = repository.meta_for_url("http://x/a.xml")
        assert meta.last_updated == first_time
        assert meta.last_accessed == first_time + 100

    def test_domain_classified_on_store(self, repository):
        outcome = repository.store_xml(
            "http://m/c.xml", "<museum><painting/></museum>"
        )
        assert outcome.meta.domain == "culture"

    def test_dtd_registered_on_store(self, repository):
        outcome = repository.store_xml(
            "http://x/a.xml",
            '<!DOCTYPE r SYSTEM "http://d/r.dtd"><r/>',
        )
        assert outcome.meta.dtd_url == "http://d/r.dtd"
        assert outcome.meta.dtd_id is not None

    def test_root_change_restarts_lineage(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<old/>")
        clock.advance(5)
        outcome = repository.store_xml("http://x/a.xml", "<new/>")
        assert outcome.status == DOC_UPDATED
        assert outcome.delta is None
        assert outcome.old_document.root.tag == "old"
        assert repository.retained_versions(outcome.meta.doc_id) == [2]

    def test_html_url_cannot_become_xml(self, repository):
        repository.store_html("http://x/p", "<html>hi</html>")
        with pytest.raises(RepositoryError):
            repository.store_xml("http://x/p", "<r/>")


@pytest.fixture
def parse_calls(monkeypatch):
    """Texts handed to the repository's ``parse``, in call order."""
    calls = []

    def counting_parse(content, memo=None):
        calls.append(content)
        return parse(content, memo)

    monkeypatch.setattr(store_module, "parse", counting_parse)
    return calls


class TestRawTextFastPath:
    URL = "http://x/a.xml"
    PAGE = "<r><a>1</a><b k='v'>two</b></r>"

    def test_identical_refetch_is_not_parsed(
        self, repository, clock, parse_calls
    ):
        first = repository.store_xml(self.URL, self.PAGE)
        clock.advance(10)
        again = repository.store_xml(self.URL, self.PAGE)
        assert parse_calls == [self.PAGE]
        assert again.status == DOC_UNCHANGED
        assert again.document is first.document
        assert again.meta.last_accessed == clock.now()
        assert again.meta.version == 1

    def test_reformatted_refetch_is_parsed_and_unchanged(
        self, repository, parse_calls
    ):
        reformatted = self.PAGE.replace("><", ">\n  <")
        repository.store_xml(self.URL, self.PAGE)
        outcome = repository.store_xml(self.URL, reformatted)
        assert parse_calls == [self.PAGE, reformatted]
        assert outcome.status == DOC_UNCHANGED
        # The reformatted text is now the one last stored.
        repository.store_xml(self.URL, reformatted)
        assert len(parse_calls) == 2

    def test_first_refetch_after_recovery_is_parsed(
        self, tmp_path, parse_calls
    ):
        journal = str(tmp_path / "j")
        crashed = SubscriptionSystem(clock=SimulatedClock(990_000_000.0))
        manager = crashed.enable_recovery(journal)
        crashed.run_stream([Fetch(url=self.URL, content=self.PAGE)])
        manager.checkpoint()
        resumed = SubscriptionSystem(clock=SimulatedClock(990_000_000.0))
        resumed.recover_runtime(journal)
        parse_calls.clear()
        first = resumed.repository.store_xml(self.URL, self.PAGE)
        second = resumed.repository.store_xml(self.URL, self.PAGE)
        assert parse_calls == [self.PAGE]
        assert first.status == second.status == DOC_UNCHANGED
        assert first.meta.signature == crashed.repository.meta_for_url(
            self.URL
        ).signature

    def test_document_input_forgets_the_raw_text(
        self, repository, parse_calls
    ):
        repository.store_xml(self.URL, self.PAGE)
        outcome = repository.store_xml(self.URL, parse(self.PAGE))
        assert outcome.status == DOC_UNCHANGED
        repository.store_xml(self.URL, self.PAGE)
        assert parse_calls == [self.PAGE, self.PAGE]

    def test_malformed_refetch_rejected_every_time(
        self, repository, parse_calls
    ):
        repository.store_xml(self.URL, self.PAGE)
        for _ in range(2):
            with pytest.raises(XMLSyntaxError):
                repository.store_xml(self.URL, "<r><a>1</r>")
        assert len(parse_calls) == 3
        meta = repository.meta_for_url(self.URL)
        assert meta.version == 1
        assert repository.store_xml(self.URL, self.PAGE).status == (
            DOC_UNCHANGED
        )
        assert len(parse_calls) == 3

    def test_html_url_fetched_as_xml_still_raises(self, repository):
        repository.store_html(self.URL, self.PAGE)
        for _ in range(2):
            with pytest.raises(RepositoryError):
                repository.store_xml(self.URL, self.PAGE)

    def test_html_store_forgets_the_raw_text(self, repository, parse_calls):
        repository.store_xml(self.URL, self.PAGE)
        repository.store_html(self.URL, "<html>page</html>")
        repository.store_xml(self.URL, self.PAGE)
        assert parse_calls == [self.PAGE, self.PAGE]


class TestStoreHTML:
    def test_new_then_unchanged_then_updated(self, repository):
        first = repository.store_html("http://x/p.html", "<html>v1</html>")
        assert first.status == DOC_NEW
        same = repository.store_html("http://x/p.html", "<html>v1</html>")
        assert same.status == DOC_UNCHANGED
        changed = repository.store_html("http://x/p.html", "<html>v2</html>")
        assert changed.status == DOC_UPDATED
        assert changed.meta.version == 2

    def test_html_not_warehoused(self, repository):
        outcome = repository.store_html("http://x/p.html", "<html/>")
        with pytest.raises(RepositoryError):
            repository.document(outcome.meta.doc_id)


class TestVersions:
    def test_reconstruct_older_versions(self, repository, clock):
        url = "http://x/a.xml"
        repository.store_xml(url, "<r><a>1</a></r>")
        clock.advance(1)
        repository.store_xml(url, "<r><a>2</a></r>")
        clock.advance(1)
        repository.store_xml(url, "<r><a>2</a><b/></r>")
        doc_id = repository.meta_for_url(url).doc_id
        assert repository.retained_versions(doc_id) == [3, 2, 1]
        v1 = repository.version(doc_id, 1)
        assert serialize(v1) == "<r><a>1</a></r>"
        v2 = repository.version(doc_id, 2)
        assert serialize(v2) == "<r><a>2</a></r>"

    def test_version_retention_bounded(self, classifier, clock):
        from repro.repository import Repository

        repository = Repository(
            classifier=classifier, clock=clock, keep_versions=3
        )
        url = "http://x/a.xml"
        for i in range(6):
            repository.store_xml(url, f"<r><a>{i}</a></r>")
            clock.advance(1)
        doc_id = repository.meta_for_url(url).doc_id
        retained = repository.retained_versions(doc_id)
        assert retained[0] == 6
        assert len(retained) == 3
        with pytest.raises(RepositoryError):
            repository.version(doc_id, 1)

    def test_read_versions_are_unsigned(self, repository):
        repository.store_xml("http://x/a.xml", "<r><a>1</a></r>")
        repository.store_xml("http://x/a.xml", "<r><a>2</a></r>")
        doc_id = repository.meta_for_url("http://x/a.xml").doc_id
        for document in (
            repository.document(doc_id),
            repository.version(doc_id, 2),
            repository.version(doc_id, 1),
        ):
            assert {node.signature for node in document.preorder()} == {None}

    def test_read_versions_carry_no_cached_words(self, repository):
        repository.store_xml("http://x/a.xml", "<r><a>one</a></r>")
        outcome = repository.store_xml(
            "http://x/a.xml", "<r><a>one</a><b>two</b></r>"
        )
        texts = [outcome.document.root.children[i].children[0] for i in (0, 1)]
        assert [text.words for text in texts] == [{"one"}, {"two"}]
        doc_id = outcome.meta.doc_id
        for document in (
            repository.document(doc_id),
            repository.version(doc_id, 2),
            repository.version(doc_id, 1),
        ):
            for node in document.preorder():
                assert getattr(node, "words", None) is None

    def test_current_version_is_a_copy(self, repository):
        repository.store_xml("http://x/a.xml", "<r><a>1</a></r>")
        doc_id = repository.meta_for_url("http://x/a.xml").doc_id
        doc = repository.document(doc_id)
        doc.root.children[0].detach()
        assert serialize(repository.document(doc_id)) == "<r><a>1</a></r>"


class TestHistoryOwnsItsSubtrees:
    """The version history holds copies of its op subtrees, so it keeps no
    stored version's tree alive, and every retained version still replays
    to what was stored."""

    @settings(max_examples=80, deadline=None)
    @given(documents(), st.lists(edit_seeds(), min_size=1, max_size=7))
    def test_chain_replays_and_pins_no_version_tree(self, first, seeds):
        repository = Repository(keep_versions=5)
        url = "http://x/chain.xml"
        versions = [first]
        for seed in seeds:
            versions.append(mutate(versions[-1], seed))
        reference = {}  # version -> a full copy of it, serialized
        stored_roots = []
        for version in versions:
            text = serialize(version)
            outcome = repository.store_xml(url, text)
            reference.setdefault(outcome.meta.version, serialize(parse(text)))
            doc_id = outcome.meta.doc_id
            stored_roots.append(repository._docs[doc_id].current.root)
        for number in repository.retained_versions(doc_id):
            assert serialize(repository.version(doc_id, number)) == reference[number]
        for _, inverse in repository._docs[doc_id].history:
            for op in inverse.inserts + inverse.deletes:
                root = op.subtree.root()
                assert root is op.subtree
                assert all(root is not stored for stored in stored_roots)


class TestLookupsAndRemoval:
    def test_lookup_by_url_and_id(self, repository):
        outcome = repository.store_xml("http://x/a.xml", "<r/>")
        assert repository.meta(outcome.meta.doc_id).url == "http://x/a.xml"
        assert repository.has_url("http://x/a.xml")

    def test_missing_lookups_raise(self, repository):
        with pytest.raises(DocumentNotFound):
            repository.meta_for_url("http://missing/")
        with pytest.raises(DocumentNotFound):
            repository.document(123)

    def test_remove(self, repository):
        repository.store_xml("http://x/a.xml", "<r>word</r>")
        doc_id = repository.meta_for_url("http://x/a.xml").doc_id
        repository.remove("http://x/a.xml")
        assert not repository.has_url("http://x/a.xml")
        assert repository.indexes.documents_with_word("word") == set()
        with pytest.raises(DocumentNotFound):
            repository.document(doc_id)

    def test_len_and_xml_ids(self, repository):
        repository.store_xml("http://x/a.xml", "<r/>")
        repository.store_html("http://x/p.html", "<html/>")
        assert len(repository) == 2
        assert len(repository.xml_doc_ids()) == 1

    def test_add_importance(self, repository):
        repository.store_xml("http://x/a.xml", "<r/>")
        repository.add_importance("http://x/a.xml", 2.5)
        assert repository.meta_for_url("http://x/a.xml").importance == 3.5


class TestRestoreChecksXids:
    """The diff trusts a version's XIDs to be unique and below the next
    XID to allocate, so a restore checks both before taking a version."""

    URL = "http://x/a.xml"

    def state_with(self, repository, xids, next_xid):
        repository.store_xml(self.URL, "<r><a>x</a><b>y</b></r>")
        state = repository.state_dict()
        (entry,) = state["documents"]
        assert entry["xids"] == [1, 2, 3, 4, 5] and entry["next_xid"] == 6
        return dict(state, documents=[dict(entry, xids=xids, next_xid=next_xid)])

    def test_repeated_xids_are_rejected(self, repository, clock):
        state = self.state_with(repository, [1, 2, 3, 2, 3], 6)
        with pytest.raises(RepositoryError, match="XIDs repeat"):
            Repository(clock=clock).restore_state(state)

    def test_xid_not_below_next_xid_is_rejected(self, repository, clock):
        state = self.state_with(repository, [1, 2, 3, 4, 5], 5)
        with pytest.raises(RepositoryError, match="not below next_xid 5"):
            Repository(clock=clock).restore_state(state)

    def test_missing_xid_is_rejected(self, repository, clock):
        state = self.state_with(repository, [1, 2, None, 4, 5], 6)
        with pytest.raises(RepositoryError, match="corrupt"):
            Repository(clock=clock).restore_state(state)

    def test_sound_xids_restore_and_diff(self, repository, clock):
        state = self.state_with(repository, [2, 3, 5, 7, 11], 12)
        twin = Repository(clock=clock)
        twin.restore_state(state)
        clock.advance(60)
        outcome = twin.store_xml(self.URL, "<r><a>x</a><b>z</b><c/></r>")
        assert outcome.status == DOC_UPDATED
        assert [update.xid for update in outcome.delta.text_updates] == [11]
        assert [node.xid for node in outcome.document.preorder()] == [
            2, 3, 5, 7, 11, 12,
        ]


A_DTD = "http://a/a.dtd"
B_DTD = "http://b/b.dtd"
Z_DTD = "http://z/z.dtd"


def with_doctype(dtd_url, body):
    if dtd_url is None:
        return body
    return f'<!DOCTYPE c SYSTEM "{dtd_url}">{body}'


class TestDoctypeFollowsTheLastFetch:
    URL = "http://x/c.xml"

    def assert_dtd(self, repository, doc_id, dtd_url):
        meta = repository.meta(doc_id)
        registry = repository.classifier.dtd_registry
        assert meta.dtd_url == dtd_url
        assert meta.dtd_id == (
            None if dtd_url is None else registry.id_for(dtd_url)
        )
        assert repository.document(doc_id).dtd_url == dtd_url
        for other in (A_DTD, B_DTD, Z_DTD):
            expected = {doc_id} if other == dtd_url else set()
            assert repository.indexes.documents_with_dtd(other) == expected

    def test_updated_version_with_a_new_doctype(self, repository):
        first_dtd_id = repository.store_xml(
            self.URL, with_doctype(A_DTD, "<c><p>camera</p></c>")
        ).meta.dtd_id
        second = repository.store_xml(
            self.URL, with_doctype(B_DTD, "<c><p>lens</p></c>")
        )
        assert second.status == DOC_UPDATED
        assert second.meta.dtd_id != first_dtd_id
        self.assert_dtd(repository, second.meta.doc_id, B_DTD)

    def test_doctype_only_change_is_unchanged_but_recorded(self, repository):
        repository.store_xml(
            self.URL, with_doctype(A_DTD, "<c><p>camera</p></c>")
        )
        repository.store_xml(
            self.URL, with_doctype(B_DTD, "<c><p>lens</p></c>")
        )
        outcome = repository.store_xml(
            self.URL, with_doctype(Z_DTD, "<c><p>lens</p></c>")
        )
        assert outcome.status == DOC_UNCHANGED
        assert outcome.meta.version == 2
        self.assert_dtd(repository, outcome.meta.doc_id, Z_DTD)

    def test_dropping_the_doctype_clears_the_dtd(self, repository):
        repository.store_xml(
            self.URL, with_doctype(A_DTD, "<c><p>camera</p></c>")
        )
        outcome = repository.store_xml(self.URL, "<c><p>camera</p></c>")
        assert outcome.status == DOC_UNCHANGED
        self.assert_dtd(repository, outcome.meta.doc_id, None)

    def test_lineage_restart_without_doctype_clears_the_dtd(
        self, repository
    ):
        repository.store_xml(
            self.URL, with_doctype(A_DTD, "<c><p>camera</p></c>")
        )
        outcome = repository.store_xml(self.URL, "<d><p>camera</p></d>")
        assert outcome.status == DOC_UPDATED and outcome.delta is None
        self.assert_dtd(repository, outcome.meta.doc_id, None)
