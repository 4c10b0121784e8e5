"""Subtree signatures (content hashes) used by the diff matcher.

Two subtrees with equal signatures are byte-identical under serialization
(same tags, attributes, text and child order), so the matcher may anchor on
them without further comparison.  Signatures are 64-bit integers derived
from BLAKE2b, computed bottom-up in one postorder pass.

Each version is signed once: :func:`document_signatures` keeps the map on
the :class:`Document`, so the repository's whole-document signature and
both sides of a later ``compute_delta`` read the same pass.

HTML pages are not warehoused by Xyleme; for them the system only keeps "the
signature of the old page" and can merely report changed/unchanged
(Section 1).  :func:`page_signature` provides that whole-page signature.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from ..xmlstore.nodes import Document, ElementNode, Node, TextNode

_HASH_BYTES = 8


def _digest(payload: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=_HASH_BYTES).digest(), "big"
    )


def page_signature(content: str) -> int:
    """Signature of a raw (HTML) page body."""
    return _digest(content.encode("utf-8", errors="replace"))


def subtree_signatures(root: Node) -> Dict[int, int]:
    """Map ``id(node)`` -> signature for every node under ``root``.

    One postorder pass; each element's signature hashes its tag, sorted
    attributes and the ordered signatures of its children.
    """
    signatures: Dict[int, int] = {}
    for node in root.postorder():
        if isinstance(node, TextNode):
            payload = b"T" + node.data.encode("utf-8", errors="replace")
        else:
            assert isinstance(node, ElementNode)
            parts = [b"E", node.tag.encode("utf-8")]
            for name in sorted(node.attributes):
                parts.append(b"A")
                parts.append(name.encode("utf-8"))
                parts.append(b"=")
                parts.append(node.attributes[name].encode("utf-8"))
            for child in node.children:
                parts.append(signatures[id(child)].to_bytes(_HASH_BYTES, "big"))
            payload = b"\x00".join(parts)
        signatures[id(node)] = _digest(payload)
    return signatures


def document_signatures(document: Document) -> Dict[int, int]:
    """:func:`subtree_signatures` of ``document``, computed on first use and
    kept on ``document.signatures`` for later calls."""
    if document.signatures is None:
        document.signatures = subtree_signatures(document.root)
    return document.signatures


def document_signature(document: Document) -> int:
    """Signature of a whole XML document (root subtree)."""
    return document_signatures(document)[id(document.root)]
