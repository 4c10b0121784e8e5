"""Inverted indexes over the warehouse.

The "Repository and Index Manager" layer of Figure 1.  The query processor
(``repro.query``) narrows scans with these; the continuous-query engine uses
the domain index to evaluate queries "from culture/museum" over the
``culture`` domain.

Each document keeps word and tag *counts*: how many of its text nodes
contain a word, how many of its elements carry a tag.  A new version is
indexed from its delta when there is one: deleted subtrees subtract, inserted
subtrees add, text updates swap the old text's words for the new, and a
posting changes only when a count crosses zero.  A first version, a lineage
restart or a restore indexes the whole tree.  Words come from
:func:`~repro.xmlstore.words.text_words`, so a text node the next version
takes over unchanged is never tokenised again; the indexed trees must not be
mutated (callers edit a ``copy_document`` copy).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set

from ..diff.delta import Delta
from ..xmlstore.nodes import Document, ElementNode, Node
from ..xmlstore.words import text_words, unique_words


class WarehouseIndexes:
    """Word, tag, DTD and domain indexes mapping to document ids."""

    def __init__(self):
        self._by_word: Dict[str, Set[int]] = {}
        self._by_tag: Dict[str, Set[int]] = {}
        self._by_dtd: Dict[str, Set[int]] = {}
        self._by_domain: Dict[str, Set[int]] = {}
        #: Per document: word -> number of text nodes containing it, and
        #: tag -> number of elements; the postings are their nonzero keys.
        self._word_counts: Dict[int, Dict[str, int]] = {}
        self._tag_counts: Dict[int, Dict[str, int]] = {}
        self._doc_dtd: Dict[int, Optional[str]] = {}
        self._doc_domain: Dict[int, Optional[str]] = {}

    # -- maintenance ----------------------------------------------------------

    def index_document(
        self,
        doc_id: int,
        document: Document,
        domain: Optional[str] = None,
        delta: Optional[Delta] = None,
    ) -> None:
        """(Re)index one document; replaces any previous postings.

        With ``delta`` (the diff from the indexed version to ``document``)
        only the changed nodes are counted; without one, or for a document
        not indexed yet, the whole tree is.
        """
        words = self._word_counts.get(doc_id)
        if delta is None or words is None:
            self.unindex_document(doc_id)
            word_changes: Counter = Counter()
            tag_changes: Counter = Counter()
            _tally(document.root, word_changes, tag_changes)
            words = self._word_counts[doc_id] = {}
            tags = self._tag_counts[doc_id] = {}
        else:
            tags = self._tag_counts[doc_id]
            word_changes = Counter()
            tag_changes = Counter()
            for insert in delta.inserts:
                _tally(insert.subtree, word_changes, tag_changes)
            removed_words: Counter = Counter()
            removed_tags: Counter = Counter()
            for delete in delta.deletes:
                _tally(delete.subtree, removed_words, removed_tags)
            for update in delta.text_updates:
                word_changes.update(unique_words(update.new_text))
                removed_words.update(unique_words(update.old_text))
            word_changes.subtract(removed_words)
            tag_changes.subtract(removed_tags)
        _apply_counts(self._by_word, doc_id, words, word_changes)
        _apply_counts(self._by_tag, doc_id, tags, tag_changes)
        _repost(self._by_dtd, self._doc_dtd, doc_id, document.dtd_url)
        _repost(self._by_domain, self._doc_domain, doc_id, domain)

    def unindex_document(self, doc_id: int) -> None:
        for word in self._word_counts.pop(doc_id, ()):
            _unpost(self._by_word, word, doc_id)
        for tag in self._tag_counts.pop(doc_id, ()):
            _unpost(self._by_tag, tag, doc_id)
        dtd_url = self._doc_dtd.pop(doc_id, None)
        if dtd_url is not None:
            _unpost(self._by_dtd, dtd_url, doc_id)
        domain = self._doc_domain.pop(doc_id, None)
        if domain is not None:
            _unpost(self._by_domain, domain, doc_id)

    # -- lookups ---------------------------------------------------------------

    def documents_with_word(self, word: str) -> Set[int]:
        return set(self._by_word.get(word, ()))

    def documents_with_tag(self, tag: str) -> Set[int]:
        return set(self._by_tag.get(tag, ()))

    def documents_with_dtd(self, dtd_url: str) -> Set[int]:
        return set(self._by_dtd.get(dtd_url, ()))

    def documents_in_domain(self, domain: str) -> Set[int]:
        return set(self._by_domain.get(domain, ()))

    def word_frequency(self, word: str) -> int:
        """Document frequency — the cost controller's commonness measure."""
        return len(self._by_word.get(word, ()))

    def vocabulary_size(self) -> int:
        return len(self._by_word)


def _tally(root: Node, words: Counter, tags: Counter) -> None:
    """Add the subtree's per-text-node words and element tags."""
    for node in root.preorder():
        if isinstance(node, ElementNode):
            tags[node.tag] += 1
        else:
            words.update(text_words(node))  # type: ignore[arg-type]


def _apply_counts(
    postings: Dict[str, Set[int]],
    doc_id: int,
    counts: Dict[str, int],
    changes: Counter,
) -> None:
    """Add signed ``changes`` to ``counts``; post or unpost ``doc_id`` for
    each key whose count crosses zero."""
    for key, change in changes.items():
        if not change:
            continue
        before = counts.get(key, 0)
        after = before + change
        assert after >= 0, f"count of {key!r} in doc {doc_id} fell below 0"
        if after:
            counts[key] = after
            if not before:
                postings.setdefault(key, set()).add(doc_id)
        else:
            del counts[key]
            _unpost(postings, key, doc_id)


def _unpost(postings: Dict[str, Set[int]], key: str, doc_id: int) -> None:
    entries = postings.get(key)
    if entries is not None:
        entries.discard(doc_id)
        if not entries:
            del postings[key]


def _repost(
    postings: Dict[str, Set[int]],
    owner: Dict[int, Optional[str]],
    doc_id: int,
    key: Optional[str],
) -> None:
    """Move ``doc_id``'s single posting in ``postings`` to ``key``."""
    previous = owner.get(doc_id)
    if previous != key:
        if previous is not None:
            _unpost(postings, previous, doc_id)
        if key is not None:
            postings.setdefault(key, set()).add(doc_id)
    owner[doc_id] = key
