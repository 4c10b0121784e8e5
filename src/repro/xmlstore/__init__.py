"""XML substrate: expat tree builder, node model, serializer, paths, words.

This package replaces the C++ DOM / libxml layer of the original Xyleme
system.  Public surface:

* :func:`parse` / :func:`serialize` — string <-> tree.
* :class:`Document`, :class:`ElementNode`, :class:`TextNode` — node model
  with levels and postorder traversal (the shape the XML Alerter needs).
* :func:`parse_path` — small path-expression language used by the query
  engine.
* :func:`extract_words` and friends — the shared definition of a "word" for
  ``contains`` conditions.
* :class:`DTDRegistry` — DTD URL <-> id interning with domain assignment.
"""

from .dtd import DTDRegistry
from .nodes import Document, ElementNode, Node, TextNode
from .parser import parse
from .paths import PathExpression, parse_path
from .serializer import serialize
from .words import (
    DEFAULT_STOP_WORDS,
    extract_words,
    iter_words,
    normalize_word,
    text_words,
    unique_words,
)

__all__ = [
    "DTDRegistry",
    "Document",
    "ElementNode",
    "Node",
    "TextNode",
    "parse",
    "PathExpression",
    "parse_path",
    "serialize",
    "DEFAULT_STOP_WORDS",
    "extract_words",
    "iter_words",
    "normalize_word",
    "text_words",
    "unique_words",
]
