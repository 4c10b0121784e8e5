"""Tree integrity when each version takes over the unchanged subtrees of
the one before it.

After every fetch of a version chain (the chains of
``test_diff_takeover_oracle``):

* the stored tree is sound: every child's ``parent`` is the element that
  lists it, and every node's ``root()`` is the stored root;
* every node's ``signature`` equals a fresh signing of a
  ``copy_document`` copy;
* ``old_document``, and every earlier outcome's ``document``, still
  serializes top-down to the text it was stored from.

A one-price update keeps every other product subtree as the very object
of the previous version; only the changed price, its product and the
root are new.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.clock import SimulatedClock
from repro.diff import DOC_UPDATED, copy_document, sign_subtree
from repro.repository import Repository
from repro.webworld import SiteGenerator
from repro.xmlstore import parse, serialize
from repro.xmlstore.nodes import Document, ElementNode

from .test_diff_takeover_oracle import chains, version_texts

URL = "http://www.shop.example/catalog.xml"


def assert_tree_sound(document: Document) -> None:
    root = document.root
    assert root.parent is None
    for node in document.preorder():
        assert node.root() is root
        if isinstance(node, ElementNode):
            for child in node.children:
                assert child.parent is node


def assert_signatures_fresh(document: Document) -> None:
    copy = copy_document(document)
    sign_subtree(copy.root)
    assert [node.signature for node in document.preorder()] == [
        node.signature for node in copy.preorder()
    ]


@settings(max_examples=60, deadline=None)
@given(chains())
def test_every_stored_version_is_a_sound_signed_tree(chain_spec):
    seed, steps = chain_spec
    repository = Repository(clock=SimulatedClock(1_000_000.0))
    earlier = []
    previous_text = None
    for text in version_texts(seed, steps):
        outcome = repository.store_xml(URL, text)
        current = repository._docs[outcome.meta.doc_id].current
        assert_tree_sound(current)
        assert_signatures_fresh(current)
        assert serialize(current) == serialize(parse(text))
        if outcome.old_document is not None:
            assert serialize(outcome.old_document.root) == serialize(
                parse(previous_text).root
            )
        earlier.append((outcome.document, text))
        for document, stored_text in earlier:
            assert serialize(document.root) == serialize(parse(stored_text).root)
        previous_text = text


def test_one_price_update_keeps_every_other_product():
    repository = Repository()
    page = SiteGenerator(seed=5).catalog(products=6)
    before = repository.store_xml(URL, serialize(page)).document
    changed = copy_document(page)
    target = list(changed.root.find_all("Product"))[2]
    target.first("price").children[0].data = "1.00"
    outcome = repository.store_xml(URL, serialize(changed))
    assert outcome.status == DOC_UPDATED
    after = outcome.document

    old_nodes = {id(node) for node in before.preorder()}
    old_children = before.root.children
    new_children = after.root.children
    assert len(old_children) == len(new_children)
    for old_child, new_child in zip(old_children, new_children):
        if new_child.get("id") == target.get("id"):
            assert new_child is not old_child
            for old_part, new_part in zip(old_child.children, new_child.children):
                if new_part.tag == "price":
                    assert new_part is not old_part
                    assert new_part.children[0] is not old_part.children[0]
                else:
                    assert new_part is old_part
                    assert new_part.parent is new_child
        else:
            assert new_child is old_child
            assert new_child.parent is after.root
    (new_target,) = [c for c in new_children if c.get("id") == target.get("id")]
    for ancestor in new_target.first("price").ancestors():
        assert id(ancestor) not in old_nodes
    assert after.root is not before.root
    assert_tree_sound(after)
    assert serialize(before) == serialize(page)


def test_a_refetch_after_an_html_fetch_keeps_a_sound_tree():
    # The HTML fetch replaces the stored signature, so the next XML fetch
    # of the same tree is diffed, finds no change and has taken over
    # every subtree of the stored version.
    repository = Repository()
    text = serialize(SiteGenerator(seed=2).catalog(products=3))
    repository.store_xml(URL, text)
    repository.store_html(URL, "<html><body>moved</body></html>")
    outcome = repository.store_xml(URL, text)
    assert outcome.status == "unchanged"
    assert outcome.meta.version == 2  # the HTML fetch counted as one
    current = repository._docs[outcome.meta.doc_id].current
    assert_tree_sound(current)
    assert_signatures_fresh(current)
    assert serialize(current) == serialize(parse(text))
