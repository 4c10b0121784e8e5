"""Signing parse oracle: a repository that parses each update against the
stored version's memo, and builds no node for a subtree that version
holds, is indistinguishable from one that parses every page whole and
then signs it with ``sign_subtree``.

The reference below is that earlier loader, written out here: a plain
``parse``, then ``sign_subtree`` against the stored memo, then the same
version logic.  Version chains of one URL mix ChangeModel edits with
hand-made ones that reach every placeholder path: an inserted product
whose children already exist elsewhere on the page, duplicated and moved
subtrees, a text changed to one found elsewhere on the page (gap-paired
with the old text), a root rename, a DOCTYPE-only change, an HTML fetch
followed by the same XML (the empty-delta branch), a ``Document`` input,
a malformed page, byte-identical refetches and checkpoint restores.  The
reference is never restored, so a restore must be invisible.

After every step both must agree on the status, version, signature,
``delta.to_xml()``, touched XIDs, preorder XIDs, the serialized tree,
every node's ``signature`` and the memo's entries; no placeholder (an
``int`` in a children list) may be reachable from ``document``,
``old_document`` or the stored version; and the stored version must be
signed with its memo holding exactly its keys.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.diff import (
    DOC_UNCHANGED,
    DOC_UPDATED,
    SignatureMemo,
    copy_document,
    sign_subtree,
)
from repro.errors import RepositoryError, XMLSyntaxError
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import parse, serialize
from repro.xmlstore import nodes
from repro.xmlstore.nodes import Document, ElementNode, TextNode

from .test_diff_takeover_oracle import DTD_CYCLE, parent_positions

URL = "http://www.shop.example/catalog.xml"
HTML_BODY = "<html><body>moved</body></html>"

# -- the reference: parse whole, then sign --------------------------------------


class PlainParseRepository(Repository):
    """The loader before the signing parse: every page is parsed whole
    and then signed against the stored memo."""

    def _store_xml(self, url, content):
        now = self.clock.now()
        doc_id = self._by_url.get(url)
        stored = None if doc_id is None else self._docs[doc_id]
        if isinstance(content, str):
            document, text = parse(content), content
        else:
            document, text = content, None
        if stored is not None and stored.current is not None:
            memo = stored.memo
        else:
            memo = SignatureMemo()
        sign_subtree(document.root, memo)
        if stored is None:
            return self._store_new_xml(url, document, text, now, memo)
        return self._store_version(stored, document, text, now)


# -- invariants ---------------------------------------------------------------------


def assert_no_placeholder(document: Optional[Document]) -> None:
    if document is None:
        return
    stack = [document.root]
    while stack:
        element = stack.pop()
        for child in element.children:
            assert isinstance(child, (ElementNode, TextNode)), child
            if isinstance(child, ElementNode):
                stack.append(child)


def assert_signed_with_own_memo(repository: Repository) -> None:
    """Every stored XML version is signed, and its memo holds exactly
    the keys of that version."""
    for stored in repository._docs.values():
        if stored.current is None:
            continue
        assert_no_placeholder(stored.current)
        copy = copy_document(stored.current)
        memo = SignatureMemo()
        sign_subtree(copy.root, memo)
        assert [node.signature for node in stored.current.preorder()] == [
            node.signature for node in copy.preorder()
        ]
        assert stored.memo.entries == memo.entries


def observed(repository: Repository):
    stored = repository._docs[repository.meta_for_url(URL).doc_id]
    current = stored.current
    return {
        "xids": [node.xid for node in current.preorder()],
        "signatures": [node.signature for node in current.preorder()],
        "text": serialize(current),
        "doctype": (current.doctype_name, current.dtd_url),
        "parents": parent_positions(current),
        "memo": stored.memo.entries,
    }


def outcome_view(outcome):
    return (
        outcome.status,
        outcome.meta.version,
        outcome.meta.signature,
        None if outcome.delta is None else outcome.delta.to_xml(),
        None
        if outcome.touched is None
        else [element.xid for element in outcome.touched],
    )


# -- chains -------------------------------------------------------------------------

#: Page edits; the other steps act on the repositories.
EDITS = (
    "mutate",
    "insert-known",
    "duplicate",
    "move",
    "gap-text",
    "rename-root",
    "doctype",
    "refetch",
)
ACTIONS = ("html", "document", "malformed", "restore")


def _elements(page: Document) -> List[ElementNode]:
    return [n for n in page.preorder() if isinstance(n, ElementNode)]


def _texts(page: Document) -> List[TextNode]:
    return [n for n in page.preorder() if isinstance(n, TextNode)]


def edited(page: Document, step: str, rng: random.Random, doctypes: int):
    page = copy_document(page)
    root = page.root
    if step == "insert-known":
        # A new product made of children the page already holds.
        products = [e for e in root.children if isinstance(e, ElementNode)]
        model = copy_document(Document(rng.choice(products))).root
        model.attributes["id"] = str(rng.randrange(1000, 2000))
        root.insert(rng.randint(0, len(root.children)), model)
    elif step == "duplicate":
        source = rng.choice([e for e in _elements(page) if e is not root])
        twin = copy_document(Document(source)).root
        target = rng.choice(_elements(page))
        target.insert(rng.randint(0, len(target.children)), twin)
    elif step == "move":
        movable = [e for e in _elements(page) if e is not root]
        node = rng.choice(movable).detach()
        parent = rng.choice([e for e in _elements(page) if e.level <= 1])
        parent.insert(rng.randint(0, len(parent.children)), node)
    elif step == "gap-text":
        # A text becomes one found elsewhere on the page.
        texts = _texts(page)
        target, source = rng.choice(texts), rng.choice(texts)
        if target.data != source.data:
            parent, index = target.parent, target.sibling_index()
            target.detach()
            parent.insert(index, TextNode(source.data))
    elif step == "rename-root":
        root.tag = "shop" if root.tag != "shop" else "catalog"
    elif step == "doctype":
        page.dtd_url = DTD_CYCLE[doctypes % len(DTD_CYCLE)]
        page.doctype_name = root.tag if page.dtd_url else None
    return page


def chain_actions(seed: int, steps: Sequence[str]) -> List[Tuple[str, str]]:
    """``(kind, text)`` actions for one URL: ``xml`` and ``document``
    store the text (as a string or a parsed ``Document``), ``html``
    stores an HTML body, ``malformed`` a page the parser rejects, and
    ``restore`` checkpoints and restores the repository."""
    rng = random.Random(seed)
    change_model = ChangeModel(seed=seed)
    page = SiteGenerator(seed=seed).catalog(products=3)
    actions = [("xml", serialize(page))]
    doctypes = 0
    for step in steps:
        text = actions[-1][1] if actions[-1][0] in ("xml", "document") else None
        if step == "html":
            actions += [("html", HTML_BODY), ("xml", serialize(page))]
        elif step == "malformed":
            actions.append(("malformed", serialize(page)[:-3]))
        elif step == "restore":
            actions.append(("restore", ""))
        elif step == "document":
            page = change_model.mutate(page)
            actions.append(("document", serialize(page)))
        elif step == "refetch" and text is not None:
            actions.append(("xml", text))
        else:
            if step == "mutate":
                page = change_model.mutate(page)
            elif step != "refetch":
                page = edited(page, step, rng, doctypes)
                doctypes += step == "doctype"
            actions.append(("xml", serialize(page)))
    return actions


def chains():
    return st.tuples(
        st.integers(0, 10_000),
        st.lists(st.sampled_from(EDITS + ACTIONS), min_size=1, max_size=12),
    )


def restored(repository: Repository) -> Repository:
    twin = Repository(clock=repository.clock)
    twin.restore_state(repository.state_dict())
    return twin


def check_chain(actions: Sequence[Tuple[str, str]]) -> None:
    clock = SimulatedClock(1_000_000.0)
    repository = Repository(clock=clock)
    reference = PlainParseRepository(clock=clock)
    for number, (kind, text) in enumerate(actions):
        where = (number, kind, text)
        clock.advance(60)
        if kind == "restore":
            repository = restored(repository)
        elif kind == "html":
            assert outcome_view(repository.store_html(URL, text)) == (
                outcome_view(reference.store_html(URL, text))
            ), where
            continue
        elif kind == "malformed":
            memo = repository._docs[repository.meta_for_url(URL).doc_id].memo
            entries = memo.entries
            for loader in (repository, reference):
                with pytest.raises(XMLSyntaxError):
                    loader.store_xml(URL, text)
            assert memo.entries is entries, where
        else:
            # A Document input may come signed against another memo.
            content = parse(text, SignatureMemo()) if kind == "document" else text
            outcome = repository.store_xml(URL, content)
            expected = reference.store_xml(
                URL, parse(text) if kind == "document" else text
            )
            assert outcome_view(outcome) == outcome_view(expected), where
            for document in (outcome.document, outcome.old_document):
                assert_no_placeholder(document)
        assert observed(repository) == observed(reference), where
        assert_signed_with_own_memo(repository)


@settings(max_examples=80, deadline=None)
@given(chains())
def test_signing_parse_matches_parse_then_sign(chain_spec):
    seed, steps = chain_spec
    check_chain(chain_actions(seed, steps))


def test_every_step_kind_along_one_long_chain():
    steps = [kind for kind in EDITS + ACTIONS for _ in range(2)] * 2
    for seed in range(4):
        order = random.Random(seed).sample(steps, len(steps))
        check_chain(chain_actions(seed, order))


def test_root_rename_after_restore_and_refetch():
    """The restored tree is signed, so the restart after a root rename
    finds every subtree the refetch's memo names."""
    steps = ["mutate", "restore", "refetch", "rename-root", "mutate"]
    for seed in range(3):
        check_chain(chain_actions(seed, steps))


def test_pages_by_hand():
    page = (
        "<r><a>1</a><b><c>2</c><c>3</c></b><d k='v'>3</d><e>same</e></r>"
    )
    check_chain(
        [
            ("xml", page),
            # A gap-paired text whose new text is elsewhere on the page.
            ("xml", page.replace("<a>1</a>", "<a>same</a>")),
            # An inserted element whose children all exist elsewhere.
            ("xml", page.replace("<d k", "<f><c>2</c>same</f><d k")),
            # A duplicated and a moved subtree.
            ("xml", page.replace("<e>", "<b><c>2</c><c>3</c></b><e>")),
            ("xml", "<r><e>same</e><a>1</a><d k='v'>3</d><b><c>2</c><c>3</c></b></r>"),
            ("html", HTML_BODY),
            ("xml", "<r><e>same</e><a>1</a><d k='v'>3</d><b><c>2</c><c>3</c></b></r>"),
            ("malformed", "<r><a>1</r>"),
            ("restore", ""),
            ("xml", '<!DOCTYPE r SYSTEM "http://d/r.dtd">' + page),
            ("document", page.replace("3</c>", "4</c>")),
            ("xml", page.replace("<r>", "<s>").replace("</r>", "</s>")),
        ]
    )


def test_the_whole_old_tree_nested_in_the_new_root():
    check_chain(
        ["xml", text]
        for text in ("<r><a>1</a></r>", "<r><r><a>1</a></r></r>", "<r><a>1</a></r>")
    )


def test_an_xml_fetch_of_an_html_url_signs_into_no_stored_memo():
    repository = Repository()
    repository.store_html(URL, HTML_BODY)
    with pytest.raises(RepositoryError):
        repository.store_xml(URL, "<r><a>1</a></r>")
    assert len(repository._docs[repository.meta_for_url(URL).doc_id].memo) == 0


# -- the signing parse on its own ------------------------------------------------------


class TestSigningParse:
    PAGE = "<r><a k='v'>one</a><b><c>two</c>one</b><a k='v'>one</a></r>"

    def test_empty_memo_signs_like_sign_subtree(self):
        memo = SignatureMemo()
        document = parse(self.PAGE, memo)
        reference = parse(self.PAGE)
        reference_memo = SignatureMemo()
        sign_subtree(reference.root, reference_memo)
        assert serialize(document) == serialize(reference)
        assert [n.signature for n in document.preorder()] == [
            n.signature for n in reference.preorder()
        ]
        assert memo.entries == reference_memo.entries
        assert_no_placeholder(document)

    def test_known_subtrees_stay_signatures_under_a_built_root(self):
        memo = SignatureMemo()
        old = parse(self.PAGE, memo)
        document = parse(self.PAGE.replace("two", "three"), memo)
        root = document.root
        assert isinstance(root, ElementNode) and root.parent is None
        first, changed, last = root.children
        assert first == last == old.root.children[0].signature
        assert isinstance(changed, ElementNode) and changed.parent is root
        text, known = changed.children[1], changed.children[0]
        assert text == old.root.children[0].children[0].signature
        assert isinstance(known, ElementNode) and known.parent is changed
        assert known.children[0].data == "three"
        # The memo now holds the new version's keys only.
        assert "three" in memo.entries and "two" not in memo.entries

    def test_an_unchanged_page_builds_only_its_root(self):
        memo = SignatureMemo()
        old = parse(self.PAGE, memo)
        document = parse(self.PAGE, memo)
        assert document.root.signature == old.root.signature
        assert all(isinstance(child, int) for child in document.root.children)

    @pytest.mark.parametrize(
        "bad", ["<r><a>1</r>", "<r>" * 300 + "</r>" * 300, "<r>&bogus;</r>"]
    )
    def test_a_rejected_page_leaves_the_memo_as_it_was(self, bad):
        memo = SignatureMemo()
        parse(self.PAGE, memo)
        entries = dict(memo.entries)
        with pytest.raises(XMLSyntaxError):
            parse(bad, memo)
        assert memo.entries == entries


# -- what an update builds --------------------------------------------------------------


@pytest.fixture
def built_nodes(monkeypatch):
    """Number of nodes the node factories create."""
    count = [0]
    make = nodes._new_node

    def counting(cls):
        count[0] += 1
        return make(cls)

    monkeypatch.setattr(nodes, "_new_node", counting)
    return count


def test_an_update_builds_only_changed_nodes_and_their_ancestors(built_nodes):
    page = SiteGenerator(seed=4).catalog(products=20)
    repository = Repository()
    repository.store_xml(URL, serialize(page))
    price = page.root.children[7].first("price").children[0]
    price.data = "123456.78"  # on no other product
    built_nodes[0] = 0
    outcome = repository.store_xml(URL, serialize(page))
    assert outcome.status == DOC_UPDATED
    # The text, its <price>, its <Product> and the root.
    assert built_nodes[0] == 4


def test_an_identical_tree_builds_only_its_root(built_nodes):
    page = SiteGenerator(seed=4).catalog(products=20)
    repository = Repository()
    repository.store_xml(URL, serialize(page))
    built_nodes[0] = 0
    reformatted = serialize(page).replace("<Product", "\n<Product")
    assert repository.store_xml(URL, reformatted).status == DOC_UNCHANGED
    assert built_nodes[0] == 1
