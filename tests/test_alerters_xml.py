import pytest

from repro.alerters import XMLAlerter
from repro.alerters.context import FetchedDocument
from repro.core import AtomicEventKey
from repro.diff import (
    DOC_NEW,
    DOC_UPDATED,
    XidSpace,
    classify_changes,
    compute_delta,
)
from repro.repository import DocumentMeta
from repro.xmlstore import parse


def key(kind, argument=None):
    return AtomicEventKey(kind, argument)


def fetched_xml(source, status=DOC_NEW, changes=None, url="http://x/a.xml"):
    return FetchedDocument(
        url=url,
        meta=DocumentMeta(doc_id=1, url=url),
        status=status,
        document=parse(source),
        changes=changes,
    )


def fetched_with_changes(old_source, new_source):
    old = parse(old_source)
    new = parse(new_source)
    space = XidSpace()
    space.assign_fresh(old.root)
    touched = []
    delta = compute_delta(old, new, space, touched)
    changes = classify_changes(delta, touched)
    return FetchedDocument(
        url="http://x/a.xml",
        meta=DocumentMeta(doc_id=1, url="http://x/a.xml"),
        status=DOC_UPDATED,
        document=new,
        changes=changes,
    )


@pytest.fixture
def alerter():
    return XMLAlerter()


class TestSelfContains:
    def test_word_anywhere_in_document(self, alerter):
        alerter.register(1, key("self_contains", "camera"))
        codes, _ = alerter.detect(
            fetched_xml("<c><p><d>a great camera deal</d></p></c>")
        )
        assert codes == {1}

    def test_word_absent(self, alerter):
        alerter.register(1, key("self_contains", "camera"))
        assert alerter.detect(fetched_xml("<c>nothing here</c>"))[0] == set()

    def test_word_matching_is_case_insensitive_via_normalization(
        self, alerter
    ):
        alerter.register(1, key("self_contains", "camera"))
        assert alerter.detect(fetched_xml("<c>CAMERA</c>"))[0] == {1}


class TestTagContains:
    def test_contains_matches_anywhere_in_subtree(self, alerter):
        # Section 6.3: "the word with a particular tag must be found
        # anywhere in the subtree".
        alerter.register(2, key("tag_present", ("Product", "camera", False)))
        codes, _ = alerter.detect(
            fetched_xml(
                "<catalog><Product><desc><b>camera</b></desc></Product>"
                "</catalog>"
            )
        )
        assert codes == {2}

    def test_contains_wrong_tag_does_not_fire(self, alerter):
        alerter.register(2, key("tag_present", ("Product", "camera", False)))
        codes, _ = alerter.detect(
            fetched_xml("<catalog><Other>camera</Other></catalog>")
        )
        assert codes == set()

    def test_strict_contains_requires_direct_data_child(self, alerter):
        alerter.register(3, key("tag_present", ("Product", "camera", True)))
        nested = fetched_xml(
            "<catalog><Product><desc>camera</desc></Product></catalog>"
        )
        assert alerter.detect(nested)[0] == set()
        direct = fetched_xml(
            "<catalog><Product>a camera indeed</Product></catalog>"
        )
        assert alerter.detect(direct)[0] == {3}

    def test_strict_contains_across_separating_element(self, alerter):
        # "two data children of the node may be separated by an element".
        alerter.register(3, key("tag_present", ("p", "last", True)))
        document = fetched_xml("<r><p>first<b>mid</b>last words</p></r>")
        assert alerter.detect(document)[0] == {3}

    def test_bare_tag_presence(self, alerter):
        alerter.register(4, key("tag_present", ("Member", None, False)))
        assert alerter.detect(
            fetched_xml("<members><Member/></members>")
        )[0] == {4}
        assert alerter.detect(fetched_xml("<members/>"))[0] == set()


class TestChangeConditions:
    def test_new_element(self, alerter):
        alerter.register(5, key("tag_new", ("Member", None, False)))
        document = fetched_with_changes(
            "<members><Member><name>a</name></Member></members>",
            "<members><Member><name>a</name></Member>"
            "<Member><name>b</name></Member></members>",
        )
        codes, data = alerter.detect(document)
        assert codes == {5}
        assert any("<name>b</name>" in payload for payload in data[5])

    def test_updated_element_with_word(self, alerter):
        alerter.register(
            6, key("tag_updated", ("Product", "camera", False))
        )
        document = fetched_with_changes(
            "<c><Product><name>camera</name><price>10</price></Product></c>",
            "<c><Product><name>camera</name><price>12</price></Product></c>",
        )
        assert alerter.detect(document)[0] == {6}

    def test_updated_element_without_word_match(self, alerter):
        alerter.register(
            6, key("tag_updated", ("Product", "telescope", False))
        )
        document = fetched_with_changes(
            "<c><Product><price>10</price></Product></c>",
            "<c><Product><price>12</price></Product></c>",
        )
        assert alerter.detect(document)[0] == set()

    def test_deleted_element(self, alerter):
        alerter.register(7, key("tag_deleted", ("Product", None, False)))
        document = fetched_with_changes(
            "<c><Product><name>x</name></Product></c>", "<c/>"
        )
        assert alerter.detect(document)[0] == {7}

    def test_brand_new_document_elements_count_as_new(self, alerter):
        alerter.register(5, key("tag_new", ("Member", None, False)))
        document = fetched_xml(
            "<members><Member/></members>", status=DOC_NEW
        )
        assert alerter.detect(document)[0] == {5}

    def test_unchanged_document_raises_no_change_events(self, alerter):
        alerter.register(5, key("tag_new", ("Member", None, False)))
        document = fetched_xml(
            "<members><Member/></members>", status="unchanged"
        )
        assert alerter.detect(document)[0] == set()


class TestLifecycle:
    def test_unregister_contains(self, alerter):
        alerter.register(2, key("tag_present", ("p", "w", False)))
        alerter.unregister(2, key("tag_present", ("p", "w", False)))
        assert alerter.detect(fetched_xml("<r><p>w</p></r>"))[0] == set()

    def test_unregister_change_condition(self, alerter):
        alerter.register(5, key("tag_new", ("m", None, False)))
        alerter.unregister(5, key("tag_new", ("m", None, False)))
        document = fetched_with_changes("<r/>", "<r><m/></r>")
        assert alerter.detect(document)[0] == set()

    def test_html_document_ignored(self, alerter):
        alerter.register(1, key("self_contains", "x"))
        document = FetchedDocument(
            url="http://h/",
            meta=DocumentMeta(doc_id=1, url="http://h/"),
            status=DOC_NEW,
            raw_content="<html>x</html>",
        )
        assert alerter.detect(document)[0] == set()


class TestDataPayloads:
    def test_payload_capped(self, alerter):
        from repro.alerters.xml_alerter import MAX_PAYLOAD_ELEMENTS

        alerter.register(5, key("tag_new", ("m", None, False)))
        many = "".join(f"<m>{i}</m>" for i in range(MAX_PAYLOAD_ELEMENTS + 10))
        document = fetched_with_changes("<r/>", f"<r>{many}</r>")
        _, data = alerter.detect(document)
        assert len(data[5]) == MAX_PAYLOAD_ELEMENTS
