"""Subtree signatures (content hashes) used by the diff matcher.

Two subtrees with equal signatures are byte-identical under serialization
(same tags, attributes, text and child order), so the matcher may anchor on
them without further comparison.  Signatures are 64-bit integers derived
from BLAKE2b, computed bottom-up in one recursive pass that stores each
node's signature on the node (``Node.signature``).

Each version is signed against the previous version of its document.  A
stored document keeps a :class:`SignatureMemo` of its current version:
every subtree's *content key* mapped to its signature.  The key is the
text of a text node, and for an element the bytes its signature hashes,
which encode its tag, sorted attribute items and child signatures
(:func:`element_keyer` builds them, for :func:`sign_subtree` and the
signing parse alike).  Signing the next version looks each subtree's key
up in the memo and runs BLAKE2b only on a miss, so a page that changed in
one price hashes little more than that price's ancestors.  A signature is
a pure function of its key, so a memo from any other tree can only miss,
never give a wrong value.  Keys are ``str`` and ``bytes`` and values
``int``, none of which the cyclic garbage collector tracks, so a memo
adds no work to its collections; only each record (below), a tuple of
an ``int`` and such a dict, is one tracked object.

The repository signs a fetched page while parsing it
(``repro.xmlstore.parser.parse(source, memo)``), and builds no node for a
subtree the memo holds: the signature stands in the parent's children
list as a placeholder until ``compute_delta`` puts the stored subtree, or
a copy of it, there.  The memo also holds the stored version's *records*,
the exact text of each child of the root that has children, with its
signature and its subtree's keys, so the parse can splice every record
the page repeats byte for byte out before expat reads it, leaving the
same placeholder.  That only works while the memo holds the keys and
records of the stored version and of no other tree, which the
repository keeps true.  :func:`sign_subtree` signs a tree already built
(a ``Document`` input, a tree a caller built).  :func:`document_signature`
signs a document only while it is unsigned (``root.signature`` is None),
so the repository's whole-document signature and both sides of a later
``compute_delta`` read the same pass, and a subtree the next version
takes over from this one (see ``repro.diff.matching``) keeps its
signatures for the diff after.

HTML pages are not warehoused by Xyleme; for them the system only keeps "the
signature of the old page" and can merely report changed/unchanged
(Section 1).  :func:`page_signature` provides that whole-page signature.
"""

from __future__ import annotations

import hashlib
from struct import Struct
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..xmlstore.nodes import Document, Node, TextNode

_HASH_BYTES = 8


def _digest(payload: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=_HASH_BYTES).digest(), "big"
    )


def page_signature(content: str) -> int:
    """Signature of a raw (HTML) page body."""
    return _digest(content.encode("utf-8", errors="replace"))


def text_signature(data: str) -> int:
    """Signature of a text node; its content key is ``data`` itself."""
    return _digest(b"T" + data.encode("utf-8", errors="replace"))


#: The signature of an element, computed from its content key.
element_signature = _digest


def element_keyer() -> Callable[[str, Dict[str, str], Sequence[int]], bytes]:
    """A function ``(tag, attributes, child signatures) -> content key``
    for one signing pass.

    The key is the bytes an element's signature hashes: its tag, its
    sorted attribute items and its ordered child signatures, each after a
    zero byte.  :func:`sign_subtree` and the signing parse
    (``repro.xmlstore.parser.parse`` with a memo) both build keys with
    it, so the format is written once.  The function caches, for its
    pass, each tag's key head and a packer per child count.
    """
    heads: Dict[str, bytes] = {}
    packers: Dict[int, Struct] = {}

    def element_key(
        tag: str, attributes: Dict[str, str], signatures: Sequence[int]
    ) -> bytes:
        key = heads.get(tag)
        if key is None:
            key = heads[tag] = b"E\x00" + tag.encode("utf-8")
        if attributes:
            for name in sorted(attributes):
                key += b"\x00A\x00%s\x00=\x00%s" % (
                    name.encode("utf-8"), attributes[name].encode("utf-8")
                )
        if signatures:
            count = len(signatures)
            packer = packers.get(count)
            if packer is None:
                packer = packers[count] = Struct(">" + "xQ" * count)
            key += packer.pack(*signatures)
        return key

    return element_key


#: A record of a :class:`SignatureMemo`: the signature of a child of the
#: root and the content keys of its subtree.
Record = Tuple[int, Dict[Hashable, int]]


class SignatureMemo:
    """Content key -> signature of every subtree of one version, and
    that version's records.

    :func:`sign_subtree` and the signing parse read it and then replace
    its entries with those of the tree they signed, so it never holds
    more keys than that tree has nodes.  ``records`` maps the exact
    UTF-8 text of each child of the root that has children, as the page
    the version was parsed from holds it, to that child's
    :data:`Record`; the signing parse splices those texts out of the
    next page (see ``repro.xmlstore.parser``).  The signing parse
    replaces the records together with the entries, and
    :func:`sign_subtree` clears them: a tree signed without its text has
    no records.
    """

    __slots__ = ("entries", "records")

    def __init__(self) -> None:
        self.entries: Dict[Hashable, int] = {}
        self.records: Dict[bytes, Record] = {}

    def __len__(self) -> int:
        return len(self.entries)


def sign_subtree(root: Node, memo: Optional[SignatureMemo] = None) -> int:
    """Store its signature on every node under ``root``; return
    ``root``'s.

    An element's signature hashes its tag, sorted attributes and the
    ordered signatures of its children; a text node's hashes its text.
    With a ``memo``, a subtree whose content key it holds takes the
    memo's signature unhashed, and the memo then holds ``root``'s keys
    in place of its old ones, and no records.
    """
    known = memo.entries if memo is not None else {}
    keys: Dict[Hashable, int] = {}
    element_key = element_keyer()

    def sign(node: Node) -> int:
        if type(node) is TextNode:
            key: Hashable = node.data
            signature = known.get(key)
            if signature is None:
                signature = text_signature(node.data)
        else:
            key = element_key(
                node.tag,  # type: ignore[attr-defined]
                node.attributes,  # type: ignore[attr-defined]
                [sign(child) for child in node.children],  # type: ignore[attr-defined]
            )
            signature = known.get(key)
            if signature is None:
                signature = element_signature(key)
        keys[key] = node.signature = signature
        return signature

    signature = sign(root)
    # ``sign`` holds itself through its closure: break the cycle so the
    # pass is freed now, not by the cyclic collector.
    del sign
    if memo is not None:
        memo.entries = keys
        memo.records = {}
    return signature


def document_signature(
    document: Document, memo: Optional[SignatureMemo] = None
) -> int:
    """Signature of a whole XML document (root subtree), signed against
    ``memo`` (if given) on first use and read from the nodes later."""
    signature = document.root.signature
    if signature is None:
        signature = sign_subtree(document.root, memo)
    return signature
