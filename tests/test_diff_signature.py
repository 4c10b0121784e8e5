import pytest

import repro.diff.signature as signature_module
import repro.repository.store as store_module
from repro.diff import XidSpace, apply_delta, compute_delta, copy_document
from repro.diff.signature import (
    SignatureMemo,
    document_signature,
    page_signature,
    sign_subtree,
)
from repro.errors import RepositoryError
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import parse, serialize


class TestDocumentSignature:
    def test_identical_documents_same_signature(self):
        a = parse("<r><x>1</x></r>")
        b = parse("<r><x>1</x></r>")
        assert document_signature(a) == document_signature(b)

    def test_text_change_changes_signature(self):
        a = parse("<r><x>1</x></r>")
        b = parse("<r><x>2</x></r>")
        assert document_signature(a) != document_signature(b)

    def test_attribute_change_changes_signature(self):
        a = parse('<r k="1"/>')
        b = parse('<r k="2"/>')
        assert document_signature(a) != document_signature(b)

    def test_attribute_order_irrelevant(self):
        a = parse('<r a="1" b="2"/>')
        b = parse('<r b="2" a="1"/>')
        assert document_signature(a) == document_signature(b)

    def test_child_order_matters(self):
        a = parse("<r><x/><y/></r>")
        b = parse("<r><y/><x/></r>")
        assert document_signature(a) != document_signature(b)

    def test_tag_rename_changes_signature(self):
        assert document_signature(parse("<r><x/></r>")) != document_signature(
            parse("<r><z/></r>")
        )


def signatures_of(root):
    """Every node's signature under ``root``, in preorder."""
    return [node.signature for node in root.preorder()]


def fresh_signatures(document):
    """The preorder signatures of a fresh signing of a copy."""
    copy = copy_document(document)
    sign_subtree(copy.root)
    return signatures_of(copy.root)


class TestSubtreeSignatures:
    def test_every_node_has_a_signature(self):
        doc = parse("<r><a>t</a><b/></r>")
        assert sign_subtree(doc.root) == doc.root.signature
        assert None not in signatures_of(doc.root)
        assert len(set(signatures_of(doc.root))) == len(list(doc.preorder()))

    def test_identical_subtrees_share_signature(self):
        doc = parse("<r><a><x>1</x></a><b><x>1</x></b></r>")
        sign_subtree(doc.root)
        a, b = doc.root.children
        assert a.children[0].signature == b.children[0].signature

    def test_element_and_text_never_collide_on_content(self):
        doc = parse("<r><t>abc</t></r>")
        sign_subtree(doc.root)
        element = doc.root.children[0]
        text = element.children[0]
        assert element.signature != text.signature


class TestPageSignature:
    def test_stable(self):
        assert page_signature("<html>x</html>") == page_signature(
            "<html>x</html>"
        )

    def test_sensitive_to_any_change(self):
        assert page_signature("<html>x</html>") != page_signature(
            "<html>y</html>"
        )

    def test_handles_unicode(self):
        assert isinstance(page_signature("héllo ✓"), int)


class TestSignatureValues:
    """Signatures are persisted in checkpoints and compared across
    processes, so their BLAKE2b values are pinned."""

    def test_document_signature_value_is_stable(self):
        document = parse(
            '<catalog k="v" a="b"><Product id="1"><name>camera</name>'
            "<price>9.50</price></Product>tail</catalog>"
        )
        assert document_signature(document) == 7179689330428373030

    def test_generated_catalog_signatures_are_stable(self):
        document = SiteGenerator(seed=7).catalog(products=5)
        assert document_signature(document) == 5083823626462614081
        assert page_signature(serialize(document)) == 1515765464599088640


class TestSignatureCache:
    def test_first_use_fills_the_cache_and_later_uses_read_it(
        self, monkeypatch
    ):
        document = parse("<r><a>t</a><b/></r>")
        assert signatures_of(document.root) == [None] * 4
        passes = []
        original = signature_module.sign_subtree
        monkeypatch.setattr(
            signature_module,
            "sign_subtree",
            lambda root, memo=None: passes.append(root) or original(root, memo),
        )
        signature = document_signature(document)
        assert document.root.signature == signature
        assert document_signature(document) == signature
        assert passes == [document.root]
        assert signatures_of(document.root) == fresh_signatures(document)

    def test_compute_delta_signs_each_version_once(self, monkeypatch):
        old = parse("<r><a>1</a><b/></r>")
        new = parse("<r><a>2</a><b/><c/></r>")
        XidSpace().assign_fresh(old.root)
        document_signature(old)
        document_signature(new)
        passes = []
        original = signature_module.sign_subtree
        monkeypatch.setattr(
            signature_module,
            "sign_subtree",
            lambda root, memo=None: passes.append(root) or original(root, memo),
        )
        delta = compute_delta(old, new, XidSpace(first_xid=100))
        assert passes == []
        assert len(delta.inserts) == 1 and len(delta.text_updates) == 1

    def test_compute_delta_signs_unsigned_versions(self):
        old = parse("<r><a>1</a></r>")
        new = parse("<r><a>2</a></r>")
        XidSpace().assign_fresh(old.root)
        compute_delta(old, new, XidSpace(first_xid=100))
        assert signatures_of(old.root) == fresh_signatures(old)
        assert signatures_of(new.root) == fresh_signatures(new)

    def test_new_documents_start_unsigned(self):
        signed = parse("<r><a>1</a></r>")
        XidSpace().assign_fresh(signed.root)
        document_signature(signed)
        changed = parse("<r><a>2</a></r>")
        delta = compute_delta(signed, changed, XidSpace(first_xid=100))
        for unsigned in (
            parse("<r/>"),
            copy_document(signed),
            apply_delta(signed, delta),
        ):
            assert set(signatures_of(unsigned.root)) == {None}


GOLDEN_SOURCE = (
    '<catalog k="v" a="b"><Product id="1"><name>camera</name>'
    "<price>9.50</price></Product>tail</catalog>"
)
GOLDEN_SIGNATURE = 7179689330428373030


def memo_of(*sources):
    """A memo last filled by signing each of ``sources`` in turn."""
    memo = SignatureMemo()
    for source in sources:
        sign_subtree(parse(source).root, memo)
    return memo


class TestSignatureMemo:
    """Signing against a memo gives the from-scratch values whatever tree
    filled the memo: a key fixes its signature, so a stale or foreign
    entry can only miss."""

    def test_memo_signing_equals_signing_from_scratch_along_a_chain(self):
        change_model = ChangeModel(seed=3)
        page = SiteGenerator(seed=3).catalog(products=6)
        memo = SignatureMemo()
        for _ in range(8):
            document = parse(serialize(page))
            sign_subtree(document.root, memo)
            assert signatures_of(document.root) == fresh_signatures(document)
            page = change_model.mutate(page)

    def test_golden_values_hold_with_foreign_memos(self):
        catalog = serialize(SiteGenerator(seed=7).catalog(products=5))
        for memo in (
            SignatureMemo(),
            memo_of(catalog),
            memo_of("<catalog><name>camera</name>tail</catalog>"),
            memo_of(GOLDEN_SOURCE, "<other>page</other>"),
            memo_of(GOLDEN_SOURCE.replace("9.50", "9.75")),
        ):
            document = parse(GOLDEN_SOURCE)
            assert document_signature(document, memo) == GOLDEN_SIGNATURE
            assert signatures_of(document.root) == fresh_signatures(document)
            generated = parse(catalog)
            assert document_signature(generated, memo) == 5083823626462614081

    def test_near_misses_in_the_memo_do_not_hit(self):
        for stored, signed in (
            ('<r><p id="1">x</p></r>', '<r><p id="2">x</p></r>'),
            ('<r><p id="1">x</p></r>', '<r><p di="1">x</p></r>'),
            ('<r><p id="1">x</p></r>', '<r><p>x</p></r>'),
            ('<r><p a="1" b="2"/></r>', '<r><p a="2" b="1"/></r>'),
            ("<r><p>x</p></r>", "<r><q>x</q></r>"),
            ("<r><p/><q/></r>", "<r><q/><p/></r>"),
            ("<r><p>x</p></r>", "<r><p>x </p></r>"),
            ("<r><p>x</p>y</r>", "<r><p>y</p>x</r>"),
        ):
            memo = memo_of(stored)
            document = parse(signed)
            sign_subtree(document.root, memo)
            assert signatures_of(document.root) == fresh_signatures(
                document
            ), (stored, signed)

    def test_memo_from_a_rejected_version_is_sound(
        self, classifier, clock, monkeypatch
    ):
        # The memo is refreshed when a version is signed, before the
        # repository decides to keep it: a page rejected after signing
        # leaves a memo of a version that was never stored.
        repository = Repository(classifier=classifier, clock=clock)
        url = "http://x/a.xml"
        repository.store_xml(url, GOLDEN_SOURCE)
        rejected = GOLDEN_SOURCE.replace("camera", "lens")

        def reject(*args):
            raise RepositoryError("rejected after signing")

        monkeypatch.setattr(store_module, "compute_delta", reject)
        with pytest.raises(RepositoryError):
            repository.store_xml(url, rejected)
        monkeypatch.undo()
        (stored,) = repository._docs.values()
        assert len(stored.memo) == len(list(parse(rejected).preorder()))
        assert stored.meta.signature == GOLDEN_SIGNATURE
        outcome = repository.store_xml(url, GOLDEN_SOURCE.replace("9.50", "9.75"))
        assert signatures_of(outcome.document.root) == fresh_signatures(
            outcome.document
        )
        assert [op.new_text for op in outcome.delta.text_updates] == ["9.75"]
        outcome = repository.store_xml(url, GOLDEN_SOURCE)
        assert outcome.meta.signature == GOLDEN_SIGNATURE

    def test_memo_holds_only_the_last_signed_version(self):
        memo = memo_of(GOLDEN_SOURCE)
        assert len(memo) == len(list(parse(GOLDEN_SOURCE).preorder()))
        memo_of_small = memo_of(GOLDEN_SOURCE, "<r>x</r>")
        assert len(memo_of_small) == 2

    def test_repository_memo_stays_within_the_current_version(
        self, classifier, clock
    ):
        repository = Repository(classifier=classifier, clock=clock)
        url = "http://www.shop.example/catalog.xml"
        change_model = ChangeModel(seed=11)
        page = SiteGenerator(seed=11).catalog(products=8)
        for _ in range(12):
            clock.advance(60)
            outcome = repository.store_xml(url, serialize(page))
            stored = repository._docs[outcome.meta.doc_id]
            assert 0 < len(stored.memo) <= len(list(stored.current.preorder()))
            page = change_model.mutate(page)

    def test_memo_is_per_document_and_not_checkpointed(self, classifier, clock):
        repository = Repository(classifier=classifier, clock=clock)
        repository.store_xml("http://x/a.xml", GOLDEN_SOURCE)
        repository.store_xml("http://x/b.xml", GOLDEN_SOURCE)
        first, second = repository._docs.values()
        assert first.memo is not second.memo
        assert len(first.memo) == len(second.memo) > 0
        for entry in repository.state_dict()["documents"]:
            assert set(entry) == {"meta", "xml", "xids", "next_xid"}
        twin = Repository(classifier=classifier, clock=clock)
        twin.restore_state(repository.state_dict())
        # The restore's parse refills each memo with its version's keys.
        assert [stored.memo.entries for stored in twin._docs.values()] == [
            first.memo.entries, second.memo.entries
        ]
        assert first.memo is not twin._docs[first.meta.doc_id].memo
