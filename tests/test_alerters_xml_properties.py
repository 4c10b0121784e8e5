"""Property tests: the XML alerter's postorder algorithm against a
brute-force reference evaluation of the same conditions, and the alerter
that skips the walk when no word or tag condition is registered against
one that always walks."""

from typing import Set

from hypothesis import given, settings, strategies as st

from repro.alerters import XMLAlerter
from repro.alerters.context import FetchedDocument
from repro.core import AtomicEventKey
from repro.diff.changes import classify_changes
from repro.repository import DocumentMeta, Repository
from repro.xmlstore.nodes import Document, ElementNode, TextNode
from repro.xmlstore.serializer import serialize
from repro.xmlstore.words import unique_words

TAGS = ["a", "b", "Product", "item"]
WORDS = ["camera", "piano", "xml", "word"]


@st.composite
def xml_documents(draw, depth=3, root_tag="root"):
    def build(level):
        element = ElementNode(draw(st.sampled_from(TAGS)))
        for _ in range(draw(st.integers(0, 3)) if level < depth else 0):
            if draw(st.booleans()):
                element.append(
                    TextNode(
                        " ".join(
                            draw(
                                st.lists(
                                    st.sampled_from(WORDS),
                                    min_size=1,
                                    max_size=3,
                                )
                            )
                        )
                    )
                )
            else:
                element.append(build(level + 1))
        return element

    root = ElementNode(root_tag)
    for _ in range(draw(st.integers(0, 3))):
        root.append(build(1))
    return Document(root)


@st.composite
def condition_sets(draw):
    conditions = []
    for code in range(1, draw(st.integers(1, 8)) + 1):
        kind = draw(st.sampled_from(["self", "contains", "strict", "tag"]))
        tag = draw(st.sampled_from(TAGS))
        word = draw(st.sampled_from(WORDS))
        if kind == "self":
            conditions.append((code, AtomicEventKey("self_contains", word)))
        elif kind == "contains":
            conditions.append(
                (code, AtomicEventKey("tag_present", (tag, word, False)))
            )
        elif kind == "strict":
            conditions.append(
                (code, AtomicEventKey("tag_present", (tag, word, True)))
            )
        else:
            conditions.append(
                (code, AtomicEventKey("tag_present", (tag, None, False)))
            )
    return conditions


def brute_force(document: Document, conditions) -> Set[int]:
    all_words: Set[str] = set()
    for node in document.preorder():
        if isinstance(node, TextNode):
            all_words |= unique_words(node.data)
    detected: Set[int] = set()
    for code, key in conditions:
        if key.kind == "self_contains":
            if key.argument in all_words:
                detected.add(code)
            continue
        tag, word, strict = key.argument
        for node in document.preorder():
            if not isinstance(node, ElementNode) or node.tag != tag:
                continue
            if word is None:
                detected.add(code)
                break
            if strict:
                direct: Set[str] = set()
                for child in node.children:
                    if isinstance(child, TextNode):
                        direct |= unique_words(child.data)
                if word in direct:
                    detected.add(code)
                    break
            else:
                subtree: Set[str] = set()
                for inner in node.preorder():
                    if isinstance(inner, TextNode):
                        subtree |= unique_words(inner.data)
                if word in subtree:
                    detected.add(code)
                    break
    return detected


@settings(max_examples=120, deadline=None)
@given(xml_documents(), condition_sets())
def test_alerter_matches_brute_force(document, conditions):
    alerter = XMLAlerter()
    for code, key in conditions:
        alerter.register(code, key)
    fetched = FetchedDocument(
        url="http://x/",
        meta=DocumentMeta(doc_id=1, url="http://x/"),
        status="unchanged",
        document=document,
    )
    detected, _ = alerter.detect(fetched)
    assert detected == brute_force(document, conditions)


@settings(max_examples=60, deadline=None)
@given(xml_documents(), condition_sets(), st.data())
def test_alerter_consistent_after_unregistrations(document, conditions, data):
    alerter = XMLAlerter()
    for code, key in conditions:
        alerter.register(code, key)
    keep = []
    for code, key in conditions:
        if data.draw(st.booleans(), label=f"keep-{code}"):
            keep.append((code, key))
        else:
            alerter.unregister(code, key)
    fetched = FetchedDocument(
        url="http://x/",
        meta=DocumentMeta(doc_id=1, url="http://x/"),
        status="unchanged",
        document=document,
    )
    detected, _ = alerter.detect(fetched)
    assert detected == brute_force(document, keep)


# -- the walk guard: differential against an alerter that always walks ---------


class AlwaysWalkAlerter(XMLAlerter):
    """``XMLAlerter.detect`` without the guard: the §6.3 walk on every
    document, whatever the tables hold."""

    def detect(self, fetched):
        codes, data = set(), {}
        if fetched.document is None:
            return codes, data
        self._walk(fetched.document.root, codes)
        self._detect_changes(fetched, codes, data)
        return codes, data


CHANGE_KINDS = ["tag_new", "tag_updated", "tag_deleted"]


@st.composite
def any_conditions(draw):
    """Word, strict-word, ``self contains``, tag-present and change keys."""
    keys = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["self", "contains", "strict", "tag", "change"]))
        tag = draw(st.sampled_from(TAGS))
        word = draw(st.sampled_from(WORDS))
        if kind == "self":
            keys.append(AtomicEventKey("self_contains", word))
        elif kind == "tag":
            keys.append(AtomicEventKey("tag_present", (tag, None, False)))
        elif kind == "change":
            keys.append(
                AtomicEventKey(
                    draw(st.sampled_from(CHANGE_KINDS)),
                    (
                        tag,
                        draw(st.sampled_from([None, word])),
                        draw(st.booleans()),
                    ),
                )
            )
        else:
            keys.append(AtomicEventKey("tag_present", (tag, word, kind == "strict")))
    return list(enumerate(keys, start=1))


@st.composite
def version_chains(draw):
    """Versions of one page; the third has another root tag, so the
    repository restarts the lineage there."""
    versions = [draw(xml_documents()) for _ in range(2)]
    versions.append(draw(xml_documents(root_tag="other")))
    for _ in range(draw(st.integers(1, 3))):
        versions.append(
            draw(xml_documents(root_tag=draw(st.sampled_from(["other", "root"]))))
        )
    return [serialize(version.root) for version in versions]


def fetch(repository: Repository, source: str) -> FetchedDocument:
    """Store a version and package it as the pipeline does."""
    outcome = repository.store_xml("http://x.example/page.xml", source)
    changes = None
    if outcome.delta is not None and outcome.touched is not None:
        changes = classify_changes(outcome.delta, outcome.touched)
    return FetchedDocument(
        url="http://x.example/page.xml",
        meta=outcome.meta,
        status=outcome.status,
        document=outcome.document,
        changes=changes,
    )


@settings(max_examples=150, deadline=None)
@given(version_chains(), any_conditions(), st.data())
def test_walk_guard_changes_no_detection(versions, conditions, data):
    guarded, walking = XMLAlerter(), AlwaysWalkAlerter()
    repository = Repository()
    pending, live = list(conditions), []
    statuses = []

    def detect_both(source):
        fetched = fetch(repository, source)
        statuses.append(fetched.status)
        assert guarded.detect(fetched) == walking.detect(fetched)

    for source in versions:
        for _ in range(data.draw(st.integers(0, 3), label="table edits")):
            if pending and (not live or data.draw(st.booleans(), label="add")):
                code, key = pending.pop(0)
                live.append((code, key))
                guarded.register(code, key)
                walking.register(code, key)
            elif live:
                index = data.draw(st.integers(0, len(live) - 1), label="drop")
                code, key = live.pop(index)
                guarded.unregister(code, key)
                walking.unregister(code, key)
        detect_both(source)
    for code, key in live:
        guarded.unregister(code, key)
        walking.unregister(code, key)
    assert not guarded._interesting_words and not guarded._present
    detect_both(versions[0])  # back to the first version
    detect_both(versions[-1])
    assert statuses[0] == "new" and statuses[2] == "updated"
