"""Classification oracle (hypothesis): ``classify_changes`` reading the
diff's own nodes lists exactly what the index-based classification did.

The reference below is the earlier ``classify_changes``: it indexes both
versions by XID and looks every operation's XIDs up there.  Random
version chains of one URL go through the repository: inserted, deleted
and moved subtrees, text and attribute updates, sibling swaps, renamed
inner elements and renamed roots (which restart the lineage).  For every
update that carries a delta, the new, updated and deleted lists must hold
the same element objects in the same order: order is observable, because
the alerter cuts its payloads at ``MAX_PAYLOAD_ELEMENTS``.
"""

from __future__ import annotations

import random
from typing import List, Set

from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.diff import DocumentChanges, classify_changes, copy_document
from repro.diff.xids import index_by_xid
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import serialize
from repro.xmlstore.nodes import Document, ElementNode, Node, TextNode

URL = "http://www.shop.example/page.xml"
TAGS = ["a", "b", "c", "item"]
WORDS = ["red", "green", "blue", "camera", "piano", "9.50"]
EDITS = ["insert", "delete", "text", "attribute", "move", "swap", "rename", "retag"]


def reference_classify(
    old_document: Document, new_document: Document, delta
) -> DocumentChanges:
    """The index-based classification ``classify_changes`` replaced."""
    changes = DocumentChanges()
    if not delta:
        return changes
    new_index = index_by_xid(new_document)
    old_index = index_by_xid(old_document)
    for insert in delta.inserts:
        root = new_index.get(insert.subtree.xid or -1)
        source: Node = root if root is not None else insert.subtree
        for node in source.preorder():
            if isinstance(node, ElementNode):
                changes.new_elements.append(node)
    for delete in delta.deletes:
        root_old = old_index.get(delete.xid)
        source = root_old if root_old is not None else delete.subtree
        for node in source.preorder():
            if isinstance(node, ElementNode):
                changes.deleted_elements.append(node)
    touched: List[Node] = []
    for update in delta.text_updates:
        node = new_index.get(update.xid)
        if node is not None:
            touched.append(node)
    for attr_update in delta.attribute_updates:
        node = new_index.get(attr_update.xid)
        if node is not None:
            touched.append(node)
    for insert in delta.inserts:
        parent = new_index.get(insert.parent_xid)
        if parent is not None:
            touched.append(parent)
    for delete in delta.deletes:
        parent = new_index.get(delete.parent_xid)
        if parent is not None:
            touched.append(parent)
    new_xids = {
        node.xid for insert in delta.inserts for node in insert.subtree.preorder()
    }
    seen: Set[int] = set()
    for node in touched:
        element = node if isinstance(node, ElementNode) else node.parent
        while element is not None:
            marker = id(element)
            if marker in seen:
                break
            seen.add(marker)
            if element.xid not in new_xids:
                changes.updated_elements.append(element)
            element = element.parent
    return changes


def assert_same_classification(actual: DocumentChanges, expected: DocumentChanges):
    for kind in ("new", "updated", "deleted"):
        got, want = actual.by_kind(kind), expected.by_kind(kind)
        assert len(got) == len(want), kind
        assert all(a is b for a, b in zip(got, want)), kind


def random_subtree(rng: random.Random, depth: int) -> Node:
    if depth == 0 or rng.random() < 0.3:
        return TextNode(rng.choice(WORDS))
    element = ElementNode(rng.choice(TAGS))
    if rng.random() < 0.3:
        element.attributes["k"] = rng.choice("12")
    for _ in range(rng.randint(0, 3)):
        element.append(random_subtree(rng, depth - 1))
    return element


def elements(document: Document) -> List[ElementNode]:
    return [n for n in document.preorder() if isinstance(n, ElementNode)]


def edit(document: Document, kind: str, rng: random.Random) -> None:
    """Apply one edit of ``kind`` to ``document`` in place."""
    root = document.root
    parents = elements(document)
    below_root = [n for n in document.preorder() if n is not root]
    if kind == "insert" or (kind in ("delete", "move") and not below_root):
        parent = rng.choice(parents)
        parent.insert(
            rng.randint(0, len(parent.children)), random_subtree(rng, 2)
        )
    elif kind == "delete":
        rng.choice(below_root).detach()
    elif kind == "move":
        node = rng.choice(below_root)
        node.detach()
        target = rng.choice(elements(document))
        target.insert(rng.randint(0, len(target.children)), node)
    elif kind == "text":
        texts = [n for n in document.preorder() if isinstance(n, TextNode)]
        if texts:
            rng.choice(texts).data = rng.choice(WORDS) + " " + rng.choice(WORDS)
        else:
            root.append(TextNode(rng.choice(WORDS)))
    elif kind == "attribute":
        element = rng.choice(parents)
        if "k" in element.attributes and rng.random() < 0.5:
            del element.attributes["k"]
        else:
            element.attributes["k"] = rng.choice("123")
    elif kind == "swap":
        crowded = [e for e in parents if len(e.children) >= 2]
        if crowded:
            element = rng.choice(crowded)
            i, j = rng.sample(range(len(element.children)), 2)
            element.children[i], element.children[j] = (
                element.children[j],
                element.children[i],
            )
    elif kind == "rename":
        inner = [e for e in parents if e is not root] or parents
        rng.choice(inner).tag = rng.choice(TAGS)
    else:  # retag: a new root element restarts the lineage
        root.tag = "other" if root.tag == "page" else "page"


def check_chain(versions: List[str]) -> int:
    """Store ``versions`` of URL; returns how many updates were compared."""
    clock = SimulatedClock(1_000_000.0)
    repository = Repository(clock=clock)
    compared = 0
    for text in versions:
        clock.advance(60)
        outcome = repository.store_xml(URL, text)
        if outcome.delta is None:
            continue
        compared += 1
        expected = reference_classify(
            outcome.old_document, outcome.document, outcome.delta
        )
        assert_same_classification(
            classify_changes(outcome.delta, outcome.touched), expected
        )
    return compared


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    steps=st.lists(
        st.lists(st.sampled_from(EDITS), min_size=1, max_size=3),
        min_size=1,
        max_size=8,
    ),
)
def test_classification_matches_the_index_based_reference(seed, steps):
    rng = random.Random(seed)
    page = ElementNode("page")
    for _ in range(rng.randint(1, 4)):
        page.append(random_subtree(rng, 3))
    document = Document(page)
    versions = [serialize(document)]
    for edits in steps:
        document = copy_document(document)
        for kind in edits:
            edit(document, kind, rng)
        versions.append(serialize(document))
    check_chain(versions)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), length=st.integers(2, 8))
def test_catalog_chains_match_the_reference(seed, length):
    change_model = ChangeModel(seed=seed)
    page = SiteGenerator(seed=seed).catalog(products=6)
    versions = []
    for _ in range(length):
        versions.append(serialize(page))
        page = change_model.mutate(page)
    assert check_chain(versions) >= 1
