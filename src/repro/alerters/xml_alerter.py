"""The XML Alerter (Section 6.3).

Handles the element-level conditions::

    ( changekind ) tag ( (strict) contains word )

plus ``self contains word``.  Word/tag detection follows the paper's
algorithm: a postorder traversal of the tree where, at each node, the set
of *interesting* words below it is available — "this is where we benefit
from the postordering".  ``contains`` means the word occurs anywhere in the
element's subtree; ``strict contains`` means in a data child of the element
itself ("two data children of the node may be separated by an element
node").

The data structures mirror Figure 8: a ``WordTable`` keyed by word whose
entries are ``TagTable``s keyed by tag yielding atomic-event codes — one
pair of tables for ``contains``, one for ``strict contains``.

Change conditions (``new Product`` ...) are evaluated against the
element-level change classification computed by the diff subsystem
(``repro.diff.changes``): "for the detection of changes we compute the
delta between the document that is being loaded and its previous version".
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.events import AtomicEventKey
from ..xmlstore.nodes import ElementNode, TextNode
from ..xmlstore.serializer import serialize
from ..xmlstore.words import text_words
from .base import Alerter, Detection, reject_unknown
from .context import FetchedDocument

_CHANGE_KINDS = {
    "tag_new": "new",
    "tag_updated": "updated",
    "tag_deleted": "deleted",
}

#: At most this many matched elements are serialized into an alert's data
#: payload per atomic event (keeps alerts bounded on huge catalogs).
MAX_PAYLOAD_ELEMENTS = 32


class XMLAlerter(Alerter):
    kinds: FrozenSet[str] = frozenset(
        {"self_contains", "tag_present", "tag_new", "tag_updated",
         "tag_deleted"}
    )

    def __init__(self):
        #: word -> codes for ``self contains word``.
        self._self_words: Dict[str, Set[int]] = {}
        #: WordTable for ``contains``: word -> TagTable (tag -> codes).
        self._contains: Dict[str, Dict[str, Set[int]]] = {}
        #: WordTable for ``strict contains``.
        self._strict: Dict[str, Dict[str, Set[int]]] = {}
        #: tag -> codes for bare ``tag`` presence conditions.
        self._present: Dict[str, Set[int]] = {}
        #: change kind -> tag -> [(word or None, strict, code)].
        self._changes: Dict[str, Dict[str, List[Tuple[Optional[str], bool, int]]]] = {
            "new": {},
            "updated": {},
            "deleted": {},
        }
        #: Words that appear in any word table (the pruning filter).
        self._interesting_words: Dict[str, int] = {}

    # -- registration -----------------------------------------------------------

    def register(self, code: int, key: AtomicEventKey) -> None:
        kind = key.kind
        if kind == "self_contains":
            word = str(key.argument)
            self._self_words.setdefault(word, set()).add(code)
            self._track_word(word, +1)
        elif kind == "tag_present":
            tag, word, strict = key.argument  # type: ignore[misc]
            if word is None:
                self._present.setdefault(tag, set()).add(code)
            else:
                table = self._strict if strict else self._contains
                table.setdefault(word, {}).setdefault(tag, set()).add(code)
                self._track_word(word, +1)
        elif kind in _CHANGE_KINDS:
            tag, word, strict = key.argument  # type: ignore[misc]
            change_kind = _CHANGE_KINDS[kind]
            self._changes[change_kind].setdefault(tag, []).append(
                (word, strict, code)
            )
        else:
            reject_unknown(self, key)

    def unregister(self, code: int, key: AtomicEventKey) -> None:
        kind = key.kind
        if kind == "self_contains":
            word = str(key.argument)
            entries = self._self_words.get(word)
            if entries is not None:
                entries.discard(code)
                if not entries:
                    del self._self_words[word]
                self._track_word(word, -1)
        elif kind == "tag_present":
            tag, word, strict = key.argument  # type: ignore[misc]
            if word is None:
                entries = self._present.get(tag)
                if entries is not None:
                    entries.discard(code)
                    if not entries:
                        del self._present[tag]
            else:
                table = self._strict if strict else self._contains
                tag_table = table.get(word)
                if tag_table is not None:
                    entries = tag_table.get(tag)
                    if entries is not None:
                        entries.discard(code)
                        if not entries:
                            del tag_table[tag]
                    if not tag_table:
                        del table[word]
                    self._track_word(word, -1)
        elif kind in _CHANGE_KINDS:
            tag, word, strict = key.argument  # type: ignore[misc]
            change_kind = _CHANGE_KINDS[kind]
            tag_entries = self._changes[change_kind].get(tag)
            if tag_entries is not None:
                self._changes[change_kind][tag] = [
                    entry for entry in tag_entries if entry[2] != code
                ]
                if not self._changes[change_kind][tag]:
                    del self._changes[change_kind][tag]
        else:
            reject_unknown(self, key)

    def _track_word(self, word: str, delta: int) -> None:
        count = self._interesting_words.get(word, 0) + delta
        if count <= 0:
            self._interesting_words.pop(word, None)
        else:
            self._interesting_words[word] = count

    # -- detection ----------------------------------------------------------------

    def detect(self, fetched: FetchedDocument) -> Detection:
        codes: Set[int] = set()
        data: Dict[int, Any] = {}
        if fetched.document is None:
            return codes, data
        # With no word and no tag-presence condition the walk cannot add a
        # code: ``_self_words``, ``_contains`` and ``_strict`` all feed
        # ``_interesting_words``.
        if self._interesting_words or self._present:
            self._walk(fetched.document.root, codes)
        self._detect_changes(fetched, codes, data)
        return codes, data

    def _walk(self, element: ElementNode, codes: Set[int]) -> Set[str]:
        """Postorder walk; returns the interesting words of the subtree.

        Only words present in some word table are propagated upward, the
        space optimization Section 6.3 describes ("keeping in this
        structure only words that are interesting").
        """
        interesting = self._interesting_words
        subtree_words: Set[str] = set()
        direct_words: Set[str] = set()
        for child in element.children:
            if isinstance(child, TextNode):
                for word in text_words(child):
                    if word in interesting:
                        direct_words.add(word)
            else:
                assert isinstance(child, ElementNode)
                subtree_words |= self._walk(child, codes)
        subtree_words |= direct_words

        tag = element.tag
        present = self._present.get(tag)
        if present:
            codes |= present
        for word in subtree_words:
            entries = self._self_words.get(word)
            if entries:
                codes |= entries
            tag_table = self._contains.get(word)
            if tag_table:
                tagged = tag_table.get(tag)
                if tagged:
                    codes |= tagged
        for word in direct_words:
            tag_table = self._strict.get(word)
            if tag_table:
                tagged = tag_table.get(tag)
                if tagged:
                    codes |= tagged
        return subtree_words

    # -- element-level change events -----------------------------------------------

    def _detect_changes(
        self,
        fetched: FetchedDocument,
        codes: Set[int],
        data: Dict[int, Any],
    ) -> None:
        changes = fetched.changes
        if changes is None:
            if fetched.status == "new" and fetched.document is not None:
                # A brand-new document: every element counts as new.
                new_table = self._changes["new"]
                if new_table:
                    for node in fetched.document.root.preorder():
                        if isinstance(node, ElementNode):
                            self._match_change(
                                new_table, node, codes, data
                            )
            return
        for change_kind, elements in (
            ("new", changes.new_elements),
            ("updated", changes.updated_elements),
            ("deleted", changes.deleted_elements),
        ):
            table = self._changes[change_kind]
            if not table:
                continue
            for element in elements:
                self._match_change(table, element, codes, data)

    def _match_change(
        self,
        table: Dict[str, List[Tuple[Optional[str], bool, int]]],
        element: ElementNode,
        codes: Set[int],
        data: Dict[int, Any],
    ) -> None:
        entries = table.get(element.tag)
        if not entries:
            return
        subtree_words: Optional[Set[str]] = None
        direct_words: Optional[Set[str]] = None
        text = ""  # the element serialized, once
        for word, strict, code in entries:
            if word is None:
                matched = True
            elif strict:
                if direct_words is None:
                    direct_words = _direct_words(element)
                matched = word in direct_words
            else:
                if subtree_words is None:
                    subtree_words = _subtree_words(element)
                matched = word in subtree_words
            if matched:
                codes.add(code)
                payload = data.setdefault(code, [])
                if len(payload) < MAX_PAYLOAD_ELEMENTS:
                    text = text or serialize(element)
                    payload.append(text)


def _direct_words(element: ElementNode) -> Set[str]:
    words: Set[str] = set()
    for child in element.children:
        if isinstance(child, TextNode):
            words |= text_words(child)
    return words


def _subtree_words(element: ElementNode) -> Set[str]:
    """Distinct words of every text node under ``element``.

    Collected per text node, never across node boundaries (the same word
    definition the postorder walk and the warehouse index use).
    """
    words: Set[str] = set()
    for node in element.preorder():
        if isinstance(node, TextNode):
            words |= text_words(node)
    return words
