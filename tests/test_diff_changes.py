from repro.diff import (
    DOC_UNCHANGED,
    DOC_UPDATED,
    XidSpace,
    classify_changes,
    compute_delta,
    document_status,
)
from repro.xmlstore import parse


def changed(old_source, new_source):
    old = parse(old_source)
    new = parse(new_source)
    space = XidSpace()
    space.assign_fresh(old.root)
    touched = []
    delta = compute_delta(old, new, space, touched)
    return classify_changes(delta, touched), delta


class TestNewElements:
    def test_inserted_subtree_elements_all_new(self):
        changes, _ = changed(
            "<catalog/>",
            "<catalog><Product><name>cam</name></Product></catalog>",
        )
        assert changes.tags("new") == {"Product", "name"}

    def test_insert_marks_parent_updated(self):
        changes, _ = changed("<catalog><x/></catalog>",
                             "<catalog><x/><Product/></catalog>")
        assert "catalog" in changes.tags("updated")
        assert "Product" in changes.tags("new")

    def test_new_elements_live_in_new_document(self):
        changes, _ = changed("<r/>", "<r><a>text</a></r>")
        (element,) = [e for e in changes.new_elements if e.tag == "a"]
        assert element.text_content() == "text"


class TestDeletedElements:
    def test_deleted_subtree_elements(self):
        changes, _ = changed(
            "<r><Product><name>x</name></Product></r>", "<r/>"
        )
        assert changes.tags("deleted") == {"Product", "name"}

    def test_deleted_elements_carry_old_content(self):
        changes, _ = changed("<r><a>gone</a></r>", "<r/>")
        (element,) = [e for e in changes.deleted_elements if e.tag == "a"]
        assert element.text_content() == "gone"


class TestUpdatedElements:
    def test_text_change_updates_ancestors(self):
        changes, _ = changed(
            "<catalog><Product><price>10</price></Product></catalog>",
            "<catalog><Product><price>12</price></Product></catalog>",
        )
        assert {"price", "Product", "catalog"} <= changes.tags("updated")

    def test_attribute_change_updates_element(self):
        changes, _ = changed('<r><a k="1"/></r>', '<r><a k="2"/></r>')
        assert "a" in changes.tags("updated")

    def test_unrelated_siblings_not_updated(self):
        changes, _ = changed(
            "<r><a><x>1</x></a><b><y>2</y></b></r>",
            "<r><a><x>1b</x></a><b><y>2</y></b></r>",
        )
        updated = changes.tags("updated")
        assert "b" not in updated and "y" not in updated

    def test_new_elements_not_double_counted_as_updated(self):
        changes, _ = changed("<r/>", "<r><a><b/></a></r>")
        assert "a" not in changes.tags("updated")
        assert "b" not in changes.tags("updated")

    def test_empty_delta_empty_changes(self):
        changes, delta = changed("<r><a/></r>", "<r><a/></r>")
        assert changes.is_empty()
        assert not delta


class TestDocumentStatus:
    def test_status_updated_when_delta_nonempty(self):
        _, delta = changed("<r><a/></r>", "<r><a/><b/></r>")
        assert document_status(delta) == DOC_UPDATED

    def test_status_unchanged_when_delta_empty(self):
        _, delta = changed("<r/>", "<r/>")
        assert document_status(delta) == DOC_UNCHANGED
