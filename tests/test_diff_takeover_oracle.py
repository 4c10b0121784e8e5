"""Takeover oracle (hypothesis): a version that takes over the stored
version's unchanged subtrees is indistinguishable from one that copies
XIDs and words onto a fresh parse.

The reference below is the earlier matcher: it signs both versions into
``id(node) -> signature`` maps and, for each anchored subtree pair, walks
the two subtrees pairwise to copy XIDs and words onto the new parse
(``_propagate_xids``).  Its signer is written out here from the signature
definition, so the slot signing is checked against it too.  Around it a
reference store keeps the same version logic as the repository, with no
memo and no raw-text skip, and a word index of its own, which fills the
text nodes' words the way the repository's index does.

Version chains of one URL mix ChangeModel edits with hand-made ones:
moves within and across parents, swaps, reverts to the first text, text
that stays equal under a changed parent, attribute edits, a root rename
(which restarts the lineage), byte-identical refetches and DOCTYPE-only
changes.  After every fetch both stores must agree on the status, version,
``delta.to_xml()``, the XIDs of the touched elements, the preorder XIDs,
each text node's ``words``, ``meta.signature``, ``serialize(current)``
and, for each node of the current tree, which node of that tree its
``parent`` is.
"""

from __future__ import annotations

import hashlib
import random
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.diff import (
    DOC_NEW,
    DOC_UNCHANGED,
    DOC_UPDATED,
    Delta,
    XidSpace,
    copy_document,
)
from repro.diff.delta import (
    DeleteOp,
    InsertOp,
    UpdateAttributesOp,
    UpdateTextOp,
)
from repro.diff.matching import _lcs_pairs, _pair_gap
from repro.diff.xids import require_xid
from repro.errors import DiffError
from repro.repository import Repository, WarehouseIndexes
from repro.clock import SimulatedClock
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import parse, serialize
from repro.xmlstore.nodes import Document, ElementNode, Node, TextNode

URL = "http://www.shop.example/catalog.xml"
DTD_CYCLE = ["http://dtd.example/a.dtd", None, "http://dtd.example/b.dtd"]

# -- the reference: the earlier id()-map signer and copying matcher -----------


def _digest(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def reference_signatures(root: Node) -> Dict[int, int]:
    """``id(node) -> signature`` for every node under ``root``."""
    signatures: Dict[int, int] = {}

    def sign(node: Node) -> int:
        if isinstance(node, TextNode):
            payload = b"T" + node.data.encode("utf-8", errors="replace")
        else:
            assert isinstance(node, ElementNode)
            payload = b"E\x00" + node.tag.encode("utf-8")
            for name in sorted(node.attributes):
                payload += b"\x00A\x00%s\x00=\x00%s" % (
                    name.encode("utf-8"),
                    node.attributes[name].encode("utf-8"),
                )
            for child in node.children:
                payload += b"\x00" + sign(child).to_bytes(8, "big")
        signatures[id(node)] = signature = _digest(payload)
        return signature

    sign(root)
    return signatures


def reference_compute_delta(
    old_document: Document,
    new_document: Document,
    xid_space: XidSpace,
    touched: List[ElementNode],
) -> Delta:
    old_root, new_root = old_document.root, new_document.root
    if old_root.tag != new_root.tag:
        raise DiffError("root element changed")
    matcher = _ReferenceMatcher(
        reference_signatures(old_root),
        reference_signatures(new_root),
        xid_space,
    )
    matcher.match_elements(old_root, new_root)
    touched.extend(
        chain(
            matcher.text_parents,
            matcher.attribute_elements,
            matcher.insert_parents,
            matcher.delete_parents,
        )
    )
    return matcher.delta


class _ReferenceMatcher:
    def __init__(
        self,
        old_signatures: Dict[int, int],
        new_signatures: Dict[int, int],
        xid_space: XidSpace,
    ):
        self.old_signatures = old_signatures
        self.new_signatures = new_signatures
        self.xid_space = xid_space
        self.delta = Delta()
        self.text_parents: List[ElementNode] = []
        self.attribute_elements: List[ElementNode] = []
        self.insert_parents: List[ElementNode] = []
        self.delete_parents: List[ElementNode] = []

    def match_elements(self, old: ElementNode, new: ElementNode) -> None:
        new.xid = require_xid(old)
        if old.attributes != new.attributes:
            changes: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
            for name in set(old.attributes) | set(new.attributes):
                before = old.attributes.get(name)
                after = new.attributes.get(name)
                if before != after:
                    changes[name] = (before, after)
            self.delta.attribute_updates.append(
                UpdateAttributesOp(xid=new.xid, changes=changes)
            )
            self.attribute_elements.append(new)
        self.align_children(old, new)

    def align_children(self, old: ElementNode, new: ElementNode) -> None:
        delta = self.delta
        old_children = old.children
        new_children = new.children
        old_keys = [self.old_signatures[id(c)] for c in old_children]
        new_keys = [self.new_signatures[id(c)] for c in new_children]
        anchors = _lcs_pairs(old_keys, new_keys)
        for old_index, new_index in anchors:
            _propagate_xids(old_children[old_index], new_children[new_index])

        boundaries = anchors + [(len(old_children), len(new_children))]
        previous = (-1, -1)
        deletions: List[int] = []
        for old_anchor, new_anchor in boundaries:
            gap_old = list(range(previous[0] + 1, old_anchor))
            gap_new = list(range(previous[1] + 1, new_anchor))
            previous = (old_anchor, new_anchor)
            if not (gap_old or gap_new):
                continue
            pairs, unmatched_old, unmatched_new = _pair_gap(
                [old_children[i] for i in gap_old],
                [new_children[j] for j in gap_new],
            )
            for offset_old, offset_new in pairs:
                old_child = old_children[gap_old[offset_old]]
                new_child = new_children[gap_new[offset_new]]
                if isinstance(old_child, TextNode):
                    assert isinstance(new_child, TextNode)
                    new_child.xid = require_xid(old_child)
                    if old_child.data != new_child.data:
                        delta.text_updates.append(
                            UpdateTextOp(
                                xid=new_child.xid,
                                old_text=old_child.data,
                                new_text=new_child.data,
                            )
                        )
                        self.text_parents.append(new)
                    else:
                        new_child.words = old_child.words
                else:
                    self.match_elements(old_child, new_child)
            deletions.extend(gap_old[i] for i in unmatched_old)
            for offset_new in unmatched_new:
                new_index = gap_new[offset_new]
                subtree = new_children[new_index]
                self.xid_space.assign_fresh(subtree)
                delta.inserts.append(
                    InsertOp(
                        parent_xid=require_xid(new),
                        position=new_index,
                        subtree=subtree,
                    )
                )
                self.insert_parents.append(new)

        for old_index in sorted(deletions, reverse=True):
            subtree = old_children[old_index]
            delta.deletes.append(
                DeleteOp(
                    xid=require_xid(subtree),
                    parent_xid=require_xid(old),
                    position=old_index,
                    subtree=subtree,
                )
            )
            self.delete_parents.append(new)


def _propagate_xids(old: Node, new: Node) -> None:
    new.xid = old.xid
    if isinstance(new, TextNode):
        new.words = old.words  # type: ignore[attr-defined]
        return
    for old_child, new_child in zip(old.children, new.children):  # type: ignore[attr-defined]
        _propagate_xids(old_child, new_child)


class ReferenceStore:
    """The repository's version logic over fresh parses and the copying
    matcher: ``store`` returns what the repository's outcome reports."""

    DOC_ID = 1

    def __init__(self) -> None:
        self.current: Optional[Document] = None
        self.xid_space = XidSpace()
        self.signature: Optional[int] = None
        self.version = 0
        self.indexes = WarehouseIndexes()

    def store(self, text: str):
        """Returns ``(status, delta, touched)``."""
        document = parse(text)
        signature = reference_signatures(document.root)[id(document.root)]
        if self.current is None:
            self.xid_space.assign_fresh(document.root)
            self._keep(document, signature, None)
            return DOC_NEW, None, None
        if signature == self.signature:
            self._same_tree(document)
            return DOC_UNCHANGED, None, None
        touched: List[ElementNode] = []
        try:
            delta = reference_compute_delta(
                self.current, document, self.xid_space, touched
            )
        except DiffError:
            self.xid_space = XidSpace()
            self.xid_space.assign_fresh(document.root)
            self._keep(document, signature, None)
            return DOC_UPDATED, None, None
        if not delta:
            self.signature = signature
            self._same_tree(document)
            return DOC_UNCHANGED, None, None
        self._keep(document, signature, delta)
        return DOC_UPDATED, delta, touched

    def _keep(self, document, signature, delta) -> None:
        self.current = document
        self.signature = signature
        self.version += 1
        self.indexes.index_document(self.DOC_ID, document, delta=delta)

    def _same_tree(self, document) -> None:
        self.current.doctype_name = document.doctype_name
        self.current.dtd_url = document.dtd_url


# -- version chains --------------------------------------------------------------

EDITS = [
    "mutate",
    "mutate",
    "move",
    "swap",
    "revert",
    "same-text",
    "attribute",
    "rename-root",
    "refetch",
    "doctype",
]


def _elements(document: Document) -> List[ElementNode]:
    return [n for n in document.preorder() if isinstance(n, ElementNode)]


def _edited(page: Document, step: str, rng: random.Random, doctypes: int):
    """A copy of ``page`` with one hand-made edit of kind ``step``."""
    page = copy_document(page)
    for node in page.preorder():
        node.xid = None
    elements = _elements(page)
    if step == "move":
        movable = [e for e in elements if e.parent is not None]
        if movable:
            node = rng.choice(movable).detach()
            parents = [e for e in _elements(page) if e.level <= 1]
            parent = rng.choice(parents)
            parent.insert(rng.randint(0, len(parent.children)), node)
    elif step == "swap":
        crowded = [e for e in elements if len(e.children) >= 2]
        if crowded:
            parent = rng.choice(crowded)
            i, j = rng.sample(range(len(parent.children)), 2)
            children = parent.children
            children[i], children[j] = children[j], children[i]
    elif step == "same-text":
        # A text that stays equal while its parent changes: a marker
        # element joins a parent that holds text, or leaves it again.
        with_text = [
            e for e in elements if any(isinstance(c, TextNode) for c in e.children)
        ]
        if with_text:
            parent = rng.choice(with_text)
            marker = parent.first("mark")
            if marker is not None and marker.parent is parent:
                marker.detach()
            else:
                parent.append(ElementNode("mark"))
    elif step == "attribute":
        target = rng.choice(elements)
        if target.attributes and rng.random() < 0.5:
            del target.attributes[rng.choice(sorted(target.attributes))]
        else:
            target.attributes[rng.choice(["id", "k", "note"])] = str(
                rng.randrange(100)
            )
    elif step == "rename-root":
        page.root.tag = "shop" if page.root.tag != "shop" else "catalog"
    elif step == "doctype":
        page.dtd_url = DTD_CYCLE[doctypes % len(DTD_CYCLE)]
        page.doctype_name = page.root.tag if page.dtd_url else None
    return page


def version_texts(seed: int, steps: Sequence[str]):
    """The texts one URL serves along a chain: a first version, then one
    per step (``refetch`` repeats the previous text byte for byte)."""
    rng = random.Random(seed)
    change_model = ChangeModel(seed=seed)
    page = SiteGenerator(seed=seed).catalog(products=3)
    first = serialize(page)
    texts = [first]
    doctypes = 0
    for step in steps:
        if step == "mutate":
            page = change_model.mutate(page)
        elif step == "revert":
            page = parse(first)
        elif step != "refetch":
            page = _edited(page, step, rng, doctypes)
            doctypes += step == "doctype"
        texts.append(serialize(page))
    return texts


def chains():
    return st.tuples(
        st.integers(0, 10_000),
        st.lists(st.sampled_from(EDITS), min_size=1, max_size=10),
    )


# -- comparison -------------------------------------------------------------------


def parent_positions(document: Document) -> List[Optional[int]]:
    """For each node in preorder, the preorder position of its ``parent``
    in the same tree (None for the root, -1 for a parent outside it)."""
    nodes = list(document.preorder())
    position = {id(node): index for index, node in enumerate(nodes)}
    return [
        None if node.parent is None else position.get(id(node.parent), -1)
        for node in nodes
    ]


def observed(document: Document):
    return {
        "xids": [node.xid for node in document.preorder()],
        "words": [
            node.words for node in document.preorder() if isinstance(node, TextNode)
        ],
        "text": serialize(document),
        "parents": parent_positions(document),
    }


def check_chain(texts: Sequence[str]) -> None:
    repository = Repository(clock=SimulatedClock(1_000_000.0))
    reference = ReferenceStore()
    for number, text in enumerate(texts):
        outcome = repository.store_xml(URL, text)
        status, delta, touched = reference.store(text)
        where = (number, text)
        assert outcome.status == status, where
        assert outcome.meta.version == reference.version, where
        assert outcome.meta.signature == reference.signature, where
        assert (None if outcome.delta is None else outcome.delta.to_xml()) == (
            None if delta is None else delta.to_xml()
        ), where
        assert (
            None
            if outcome.touched is None
            else [element.xid for element in outcome.touched]
        ) == (None if touched is None else [element.xid for element in touched])
        stored = repository._docs[outcome.meta.doc_id].current
        assert outcome.document is stored
        assert observed(stored) == observed(reference.current), where


@settings(max_examples=80, deadline=None)
@given(chains())
def test_takeover_matches_the_copying_matcher(chain_spec):
    seed, steps = chain_spec
    check_chain(version_texts(seed, steps))


def test_every_edit_kind_along_one_long_chain():
    steps = [kind for kind in EDITS for _ in range(2)] * 2
    for seed in range(4):
        check_chain(version_texts(seed, random.Random(seed).sample(steps, len(steps))))


def test_same_text_under_a_changed_parent_keeps_its_words():
    texts = [
        "<r><p>same words<b>1</b></p><q>other</q></r>",
        "<r><p>same words<b>2</b></p><q>other</q></r>",
        "<r><q>other</q><p>same words<b>2</b><mark/></p></r>",
        "<r><q>other</q><p>same words<b>2</b><mark/></p></r>",
    ]
    check_chain(texts)
    repository = Repository()
    for text in texts[:2]:
        outcome = repository.store_xml(URL, text)
    same = outcome.document.root.children[0].children[0]
    assert same.data == "same words"
    assert same.words == frozenset({"same", "words"})


def test_moves_swaps_and_reverts_by_hand():
    check_chain(
        [
            "<r><a>1</a><b><c>2</c></b><d k='v'>3</d></r>",
            "<r><b><c>2</c></b><a>1</a><d k='v'>3</d></r>",
            "<r><b><c>2</c><a>1</a></b><d k='v'>3</d></r>",
            "<r><b><a>1</a><c>2</c></b><d k='w'>3</d></r>",
            "<r><a>1</a><b><c>2</c></b><d k='v'>3</d></r>",
            "<r><a>1</a><b><c>2</c></b><d k='v'>3</d></r>",
            '<!DOCTYPE r SYSTEM "http://d/r.dtd"><r><a>1</a><b><c>2</c></b>'
            "<d k='v'>3</d></r>",
            "<s><a>1</a><b><c>2</c></b></s>",
            "<s><b><c>2</c></b><a>1</a></s>",
        ]
    )
