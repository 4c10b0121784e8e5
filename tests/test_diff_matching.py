import pytest
from hypothesis import given, settings, strategies as st

from repro.diff import XidSpace, compute_delta
from repro.diff.matching import _lcs_pairs
from repro.errors import DiffError
from repro.xmlstore import parse, serialize


def diff(old_source, new_source):
    old = parse(old_source)
    new = parse(new_source)
    space = XidSpace()
    space.assign_fresh(old.root)
    delta = compute_delta(old, new, space)
    return old, new, delta


class TestNoChange:
    def test_identical_documents_empty_delta(self):
        _, _, delta = diff("<r><a>1</a></r>", "<r><a>1</a></r>")
        assert not delta
        assert len(delta) == 0

    def test_xids_propagated_on_identity(self):
        old, new, _ = diff("<r><a>1</a></r>", "<r><a>1</a></r>")
        assert new.root.xid == old.root.xid
        assert new.root.children[0].xid == old.root.children[0].xid


class TestInsertions:
    def test_appended_element(self):
        _, _, delta = diff("<r><a/></r>", "<r><a/><b/></r>")
        assert len(delta.inserts) == 1
        assert not delta.deletes and not delta.text_updates
        assert delta.inserts[0].position == 1

    def test_inserted_in_middle(self):
        _, new, delta = diff("<r><a/><c/></r>", "<r><a/><b/><c/></r>")
        (insert,) = delta.inserts
        assert insert.position == 1
        assert insert.subtree.tag == "b"

    def test_inserted_subtree_gets_fresh_xids(self):
        old, new, delta = diff("<r/>", "<r><a><b/></a></r>")
        (insert,) = delta.inserts
        xids = [n.xid for n in insert.subtree.preorder()]
        assert all(x is not None for x in xids)
        assert min(xids) > old.root.xid

    def test_new_member_example(self):
        # The paper's members.xml example.
        _, _, delta = diff(
            "<members><Member><name>jouglet</name></Member></members>",
            "<members><Member><name>jouglet</name></Member>"
            "<Member><name>preda</name></Member></members>",
        )
        (insert,) = delta.inserts
        assert insert.subtree.tag == "Member"


class TestDeletions:
    def test_removed_element(self):
        _, _, delta = diff("<r><a/><b/></r>", "<r><a/></r>")
        (delete,) = delta.deletes
        assert delete.subtree.tag == "b"
        assert delete.position == 1

    def test_deletions_recorded_right_to_left(self):
        _, _, delta = diff("<r><a/><b/><c/><d/></r>", "<r><b/></r>")
        positions = [d.position for d in delta.deletes]
        assert positions == sorted(positions, reverse=True)


class TestUpdates:
    def test_text_update(self):
        _, _, delta = diff("<r><a>old</a></r>", "<r><a>new</a></r>")
        (update,) = delta.text_updates
        assert update.old_text == "old"
        assert update.new_text == "new"

    def test_text_update_keeps_element_xid(self):
        old, new, _ = diff("<r><a>old</a></r>", "<r><a>new</a></r>")
        assert new.root.children[0].xid == old.root.children[0].xid

    def test_attribute_update(self):
        _, _, delta = diff('<r><a k="1"/></r>', '<r><a k="2"/></r>')
        (update,) = delta.attribute_updates
        assert update.changes == {"k": ("1", "2")}

    def test_attribute_added_and_removed(self):
        _, _, delta = diff('<r a="1"/>', '<r b="2"/>')
        (update,) = delta.attribute_updates
        assert update.changes == {"a": ("1", None), "b": (None, "2")}

    def test_nested_update_inside_matched_parent(self):
        _, _, delta = diff(
            "<catalog><Product><price>10</price></Product></catalog>",
            "<catalog><Product><price>12</price></Product></catalog>",
        )
        assert len(delta.text_updates) == 1
        assert not delta.inserts and not delta.deletes


class TestMixedEdits:
    def test_insert_update_delete_together(self):
        _, _, delta = diff(
            "<r><a>1</a><b>2</b><c>3</c></r>",
            "<r><a>1</a><b>two</b><d>4</d></r>",
        )
        assert len(delta.text_updates) == 1
        assert len(delta.deletes) == 1
        assert len(delta.inserts) == 1

    def test_anchor_matching_survives_shift(self):
        # Identical subtrees should anchor even when positions shift.
        old, new, delta = diff(
            "<r><x><k>stable</k></x><y/></r>",
            "<r><pre/><x><k>stable</k></x><y/></r>",
        )
        assert len(delta.inserts) == 1
        assert delta.inserts[0].subtree.tag == "pre"
        # The stable subtree kept its XIDs.
        old_x = old.root.children[0]
        new_x = new.root.children[1]
        assert new_x.xid == old_x.xid


class TestRootChange:
    def test_root_tag_change_raises(self):
        old = parse("<a/>")
        new = parse("<b/>")
        space = XidSpace()
        space.assign_fresh(old.root)
        with pytest.raises(DiffError):
            compute_delta(old, new, space)


class TestDeltaXML:
    def test_to_xml_shape(self):
        _, _, delta = diff("<r><a/></r>", "<r><a/><b/></r>")
        xml = delta.to_xml()
        assert xml.startswith("<delta>")
        assert "<inserted" in xml and 'position="1"' in xml

    def test_delta_xml_parses_back(self):
        _, _, delta = diff("<r><a>1</a></r>", "<r><a>2</a><b/></r>")
        parsed = parse(delta.to_xml())
        kinds = [child.tag for child in parsed.root.children]
        assert "inserted" in kinds and "updated" in kinds


def _reference_lcs_pairs(left, right):
    """The full-table LCS ``_lcs_pairs`` computes, without its shortcut
    for a common prefix."""
    n, m = len(left), len(right)
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if left[i] == right[j]:
                lengths[i][j] = lengths[i + 1][j + 1] + 1
            else:
                lengths[i][j] = max(lengths[i + 1][j], lengths[i][j + 1])
    pairs = []
    i = j = 0
    while i < n and j < m:
        if left[i] == right[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.lists(st.integers(0, 3), max_size=6),
    left=st.lists(st.integers(0, 3), max_size=8),
    right=st.lists(st.integers(0, 3), max_size=8),
)
def test_lcs_pairs_equal_the_full_table(prefix, left, right):
    left, right = prefix + left, prefix + right
    assert _lcs_pairs(left, right) == _reference_lcs_pairs(left, right)
