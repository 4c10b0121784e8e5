"""XML parser: a small tree builder over the stdlib expat parser.

``xml.parsers.expat`` does the lexing and the well-formedness checks (single
root, balanced tags, attribute syntax); this module only builds the
:class:`~repro.xmlstore.nodes.Document`.  Adjacent character data, entity
references and CDATA sections fold into one :class:`TextNode`, and
whitespace-only text is dropped because the alerter word tables and the diff
matcher operate on meaningful data nodes.  Comments and processing
instructions are skipped; a ``<!DOCTYPE>`` declaration fills
``doctype_name`` and ``dtd_url``.

The handlers build nodes through the factories of ``nodes``
(:func:`~repro.xmlstore.nodes.new_element`,
:func:`~repro.xmlstore.nodes.new_text`): one call per node creates it,
stores its slots and appends it to its parent.  The attribute dict expat
hands each start tag is fresh, so the element keeps it uncopied, and a
text run is joined only when expat delivered it in more than one piece.

``parse(source, memo)`` is the repository's signing parse.  The memo is
the :class:`~repro.diff.signature.SignatureMemo` of the version stored
for the URL: each subtree's content key mapped to its signature.  Nodes
are built bottom-up instead: the end-element handler computes the
element's content key from its tag, attributes and child signatures
(with :func:`~repro.diff.signature.element_keyer`, the helper
``sign_subtree`` uses too) and looks it up.  A subtree the memo holds
gets no node: its parent's children list holds its signature, an
``int``, as a *placeholder*.  Any other node is built and signed.  The
root is always built.  On success the memo holds the new tree's keys; a
rejected page leaves it as it was.  So an update allocates only its
changed nodes and their ancestors, and ``compute_delta`` replaces every
placeholder with the stored version's subtree or a copy of it (see
``repro.diff.matching``).  A tree with placeholders never leaves the
repository.  Plain ``parse(source)`` builds and signs nothing extra.

The signing parse also *splices*, so that expat reads only the records
that changed.  A *record* is a child of the root that has children; the
memo keeps the stored version's records as their exact bytes (UTF-8, the
span from the ``<`` of the start tag to the ``>`` of the end tag), each
with its signature and the content keys of its subtree.  Before expat
runs, every record found byte-identical in the fetched page is replaced
by the empty element ``<_/>``, and expat reads that short skeleton.  A
spliced record becomes its signature in the root's children list, the
same placeholder a known subtree leaves, and its keys go into the new
memo.  The page is parsed as ``source.encode()`` with expat's encoding
set to UTF-8, which reads it as a ``str`` parse does, so that
``CurrentByteIndex`` gives byte offsets into it.

A splice holds only where expat proves it: each ``<_/>`` must be reported
at exactly the byte offset where it was put, as a child of the root.
Otherwise (the record's bytes sat in a comment, a CDATA section, a
processing instruction or an attribute value, or deeper than the root's
children), on any error, and for a page with an internal DTD subset,
whose ``ATTLIST`` defaults can change what the same bytes mean, the page
is parsed again whole, with no record spliced.  So an error keeps the
message, line and column of a whole parse.  A page with an internal
subset records nothing.

Only the five predefined entities and character references expand.  An
entity declaration, or a reference expat would skip (an undeclared entity
under an external DTD subset), is rejected.  Elements nested deeper than
:data:`MAX_DEPTH` are rejected too, so one pathological page cannot exhaust
the recursion of later stages.

Expat follows the XML 1.0 spec, so some inputs read differently than with
a lenient parser:

* CRLF in text becomes LF;
* tab and newline in attribute values become spaces;
* a raw ``<`` in an attribute value is rejected;
* ``--`` inside a comment is rejected;
* ``]]>`` in text is rejected;
* ``&#0;`` is rejected;
* a malformed ``<?xml ...?>`` declaration is rejected.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union
from xml.parsers import expat

from ..diff.signature import (
    Record,
    SignatureMemo,
    element_keyer,
    element_signature,
    text_signature,
)
from ..errors import XMLSyntaxError
from .nodes import Document, ElementNode, Node, new_element, new_text

#: Deepest element nesting accepted; libxml2's default maximum depth.
MAX_DEPTH = 256

#: The tag of the empty element a spliced record is replaced with.
SPLICE_TAG = "_"
_SPLICE = f"<{SPLICE_TAG}/>".encode()


class _Unproven(Exception):
    """Expat did not report every splice where it was put."""


def parse(source: str, memo: Optional[SignatureMemo] = None) -> Document:
    """Parse an XML string into a :class:`Document`.

    With a ``memo``, the parse also signs the tree, a subtree the memo
    holds stays a signature placeholder, and a record the memo holds is
    spliced out before expat reads the page: see the module docstring.

    >>> doc = parse('<catalog><product>camera</product></catalog>')
    >>> doc.root.tag
    'catalog'
    >>> doc.root.children[0].text_content()
    'camera'
    """
    if memo is None:
        return _parse(source, None, ())
    data = source.encode()
    if memo.records:
        skeleton, splices = _splice(data, memo.records)
        if splices:
            try:
                return _parse(skeleton, memo, splices)
            except (XMLSyntaxError, _Unproven):
                pass  # parsed again whole below, for the error a whole parse gives
    return _parse(data, memo, ())


def _splice(
    data: bytes, records: Dict[bytes, Record]
) -> Tuple[bytes, List[Tuple[int, bytes]]]:
    """``data`` with each record found in it replaced by ``<_/>``, and
    the ``(offset in the result, record)`` of each replacement, in order.

    Records are looked for in stored order, each first at the next tag
    after the last one found, then anywhere after it and, failing that,
    before it; found spans that overlap an earlier one are left in place.
    """
    found: List[Tuple[int, bytes]] = []
    position = 0
    for record in records:
        at = data.find(b"<", position)
        if not data.startswith(record, at):
            at = data.find(record, position)
        if at >= 0:
            position = at + len(record)
        else:
            at = data.find(record, 0, position + len(record) - 1)
            if at < 0:
                continue
        found.append((at, record))
    found.sort()
    pieces: List[bytes] = []
    splices: List[Tuple[int, bytes]] = []
    end = length = 0
    for at, record in found:
        if at < end:
            continue
        pieces.append(data[end:at])
        length += at - end
        splices.append((length, record))
        pieces.append(_SPLICE)
        length += len(_SPLICE)
        end = at + len(record)
    pieces.append(data[end:])
    return b"".join(pieces), splices


def _parse(
    source: Union[str, bytes],
    memo: Optional[SignatureMemo],
    splices: Sequence[Tuple[int, bytes]],
) -> Document:
    """Parse ``source``; with a ``memo``, sign against it and splice in
    the records at ``splices`` (raising :class:`_Unproven` when expat
    does not report one of them where it was put)."""
    parser = expat.ParserCreate() if memo is None else expat.ParserCreate("utf-8")
    parser.buffer_text = True
    text: List[str] = []  # pieces of one text run; expat splits long runs
    doctype_name: Optional[str] = None
    dtd_url: Optional[str] = None

    def error(message: str) -> XMLSyntaxError:
        return XMLSyntaxError(
            message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        )

    if memo is None:
        holder = ElementNode("")  # parent of the root element while building
        stack: List[ElementNode] = [holder]

        def flush_text() -> None:
            data = text[0] if len(text) == 1 else "".join(text)
            text.clear()
            if data.strip():
                new_text(stack[-1], data)

        def start(tag: str, attributes: Dict[str, str]) -> None:
            if text:
                flush_text()
            if len(stack) > MAX_DEPTH:
                raise error(f"elements nested deeper than {MAX_DEPTH}")
            # Expat hands each element a fresh attribute dict: keep it as is.
            stack.append(new_element(stack[-1], tag, attributes))

        def end(tag: str) -> None:
            if text:
                flush_text()
            stack.pop()

        def start_doctype(name, system_id, public_id, has_internal_subset) -> None:
            nonlocal doctype_name, dtd_url
            doctype_name, dtd_url = name, system_id

    else:
        known = memo.entries
        stored_records = memo.records
        records: Dict[bytes, Record] = {}
        # The keys of the page outside its records, and of the record
        # being read while one is open.
        page_keys: Dict[Hashable, int] = {}
        keys = page_keys
        element_key = element_keyer()
        # One frame per open element: its tag, its attributes, its
        # children's signatures and the height of ``built`` when it
        # opened.  ``built`` holds (position, node) for each node built
        # but not yet linked to its parent: a child whose subtree the
        # memo does not hold.  A known child stays a signature.
        built: List[Tuple[int, Node]] = []
        frames: List[Tuple[str, Dict[str, str], List[int], int]] = [
            ("", {}, [], 0)
        ]
        # Splices still to come, the next one last; its offset in
        # ``next_splice`` (-1 when none is left).
        pending = list(reversed(splices))
        next_splice = pending[-1][0] if pending else -1
        opened = 0  # byte offset of the open child of the root
        subset = False  # whether the page has an internal DTD subset

        def flush_text() -> None:
            data = text[0] if len(text) == 1 else "".join(text)
            text.clear()
            if data.strip():
                siblings = frames[-1][2]
                signature = known.get(data)
                if signature is None:
                    signature = text_signature(data)
                    built.append(
                        (len(siblings), new_text(None, data, None, signature))
                    )
                siblings.append(signature)
                keys[data] = signature

        def start(tag: str, attributes: Dict[str, str]) -> None:
            nonlocal keys, opened, next_splice
            if text:
                flush_text()
            depth = len(frames)
            if depth == 2:  # a child of the root
                if tag == SPLICE_TAG and parser.CurrentByteIndex == next_splice:
                    record = pending.pop()[1]
                    next_splice = pending[-1][0] if pending else -1
                    signature, record_keys = records[record] = stored_records[record]
                    page_keys.update(record_keys)
                    frames[-1][2].append(signature)
                    parser.EndElementHandler = end_splice
                    return
                opened = parser.CurrentByteIndex
                keys = {}
            elif depth > MAX_DEPTH:
                raise error(f"elements nested deeper than {MAX_DEPTH}")
            frames.append((tag, attributes, [], len(built)))

        def end_splice(_tag: str) -> None:
            parser.EndElementHandler = end

        def end(_tag: str) -> None:
            nonlocal keys
            if text:
                flush_text()
            tag, attributes, children, mark = frames.pop()
            key = element_key(tag, attributes, children)
            signature = known.get(key)
            siblings = frames[-1][2]
            if signature is not None and len(frames) > 1:
                # A known subtree; the root is always built.
                del built[mark:]  # empty unless two contents share a signature
            else:
                if signature is None:
                    signature = element_signature(key)
                # ``children`` becomes the element's list: its built
                # children replace their signatures, the others stay
                # placeholders.
                element = new_element(
                    None, tag, attributes, None, signature, children
                )
                for position, child in built[mark:]:
                    children[position] = child
                    child.parent = element
                del built[mark:]
                built.append((len(siblings), element))
            keys[key] = signature
            siblings.append(signature)
            if len(frames) == 2:  # a child of the root closed
                record_keys, keys = keys, page_keys
                page_keys.update(record_keys)
                if children and not subset:
                    # An element with children has an end tag, whose
                    # ``>`` ends the record (after ``<a/>``, expat
                    # reports the end past the ``/>``).
                    stop = source.index(b">", parser.CurrentByteIndex) + 1
                    records[source[opened:stop]] = (signature, record_keys)

        def start_doctype(name, system_id, public_id, has_internal_subset) -> None:
            nonlocal doctype_name, dtd_url, subset
            doctype_name, dtd_url = name, system_id
            if has_internal_subset:
                if splices:
                    raise _Unproven
                subset = True

    def reject_entity_declaration(name, *args) -> None:
        raise error(f"entity declaration {name!r} not supported")

    def reject_skipped_entity(name, is_parameter_entity) -> None:
        raise error(f"unknown entity &{name};")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    parser.StartDoctypeDeclHandler = start_doctype
    parser.EntityDeclHandler = reject_entity_declaration
    parser.SkippedEntityHandler = reject_skipped_entity
    try:
        parser.Parse(source, True)
    except expat.ExpatError as exc:
        raise XMLSyntaxError(
            expat.ErrorString(exc.code), exc.lineno, exc.offset + 1
        ) from None
    finally:
        # ``error`` holds the parser, which holds the handlers: break the
        # cycle so the parser is freed now, not by the cyclic collector.
        del parser
    if memo is None:
        (root,) = holder.element_children()
        root.detach()
    else:
        if pending:
            raise _Unproven
        ((_, root),) = built
        memo.entries = page_keys
        memo.records = records
    return Document(root, doctype_name=doctype_name, dtd_url=dtd_url)
