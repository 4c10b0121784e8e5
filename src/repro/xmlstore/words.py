"""Word extraction shared by the XML alerter, indexes and cost controller.

The ``contains`` atomic condition of the subscription language matches a
*word* inside element text (Section 5.1 and 6.3).  Everything that needs to
agree on what a "word" is (the alerter's WordTable, the repository's word
index, the stop-word cost control of Section 5.4) goes through this module.

Each text node is tokenised once: :func:`text_words` keeps the node's
distinct words on ``TextNode.words``, the next version takes the node
over with the rest of an unchanged subtree (see ``repro.diff.matching``),
and the warehouse index and the XML alerter both read them from there.  A tree whose text nodes carry cached
words must therefore not be mutated; callers that edit a document edit a
``copy_document`` copy, whose text nodes start with ``words`` unset.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Iterator, List

from .nodes import TextNode

#: Words the cost controller refuses in ``contains`` conditions (Section 5.4:
#: "prevent the use of contains conditions on too common a word such as
#: 'the'").  Deliberately small; the controller also accepts a custom list.
DEFAULT_STOP_WORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on or that
    the to was were will with this you your they we not all can had her his
    more if but out up so what who when where which there their them then
    than these those been being have do does did no yes""".split()
)


def normalize_word(word: str) -> str:
    """Canonical form used for all word comparisons: casefolded."""
    return word.casefold()


#: A word: a maximal alphanumeric run, possibly continued by ``-``/``'``
#: followed by more alphanumerics (so ``hi-fi`` stays one word, as in the
#: paper's ``category = "hi-fi"`` example).
_WORD_RE = re.compile(r"[^\W_]+(?:['\-]+[^\W_]+)*", re.UNICODE)


def iter_words(text: str) -> Iterator[str]:
    """Normalized words of ``text``, in order (``str.casefold`` is
    :func:`normalize_word`, applied without a Python-level call)."""
    return map(str.casefold, _WORD_RE.findall(text))


def extract_words(text: str) -> List[str]:
    """List of normalized words, in order, duplicates preserved."""
    return [w for w in iter_words(text) if w]


def unique_words(text: str) -> set:
    """Set of distinct normalized words in ``text``."""
    return set(iter_words(text))


def text_words(node: TextNode) -> FrozenSet[str]:
    """``unique_words(node.data)``, computed on first use and kept on
    ``node.words`` for later calls."""
    words = node.words
    if words is None:
        words = node.words = frozenset(iter_words(node.data))
    return words
