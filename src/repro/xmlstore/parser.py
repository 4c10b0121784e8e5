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

from typing import Dict, Hashable, List, Optional, Tuple
from xml.parsers import expat

from ..diff.signature import (
    SignatureMemo,
    element_keyer,
    element_signature,
    text_signature,
)
from ..errors import XMLSyntaxError
from .nodes import Document, ElementNode, Node, new_element, new_text

#: Deepest element nesting accepted; libxml2's default maximum depth.
MAX_DEPTH = 256


def parse(source: str, memo: Optional[SignatureMemo] = None) -> Document:
    """Parse an XML string into a :class:`Document`.

    With a ``memo``, the parse also signs the tree, and a subtree the
    memo holds stays a signature placeholder: see the module docstring.

    >>> doc = parse('<catalog><product>camera</product></catalog>')
    >>> doc.root.tag
    'catalog'
    >>> doc.root.children[0].text_content()
    'camera'
    """
    parser = expat.ParserCreate()
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

    else:
        known = memo.entries
        keys: Dict[Hashable, int] = {}
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
            if text:
                flush_text()
            if len(frames) > MAX_DEPTH:
                raise error(f"elements nested deeper than {MAX_DEPTH}")
            frames.append((tag, attributes, [], len(built)))

        def end(_tag: str) -> None:
            if text:
                flush_text()
            tag, attributes, children, mark = frames.pop()
            key = element_key(tag, attributes, children)
            signature = known.get(key)
            if signature is None:
                signature = element_signature(key)
            elif len(frames) > 1:  # a known subtree; the root is always built
                keys[key] = signature
                del built[mark:]  # empty unless two contents share a signature
                frames[-1][2].append(signature)
                return
            keys[key] = signature
            # ``children`` becomes the element's list: its built children
            # replace their signatures, the others stay placeholders.
            element = new_element(None, tag, attributes, None, signature, children)
            for position, child in built[mark:]:
                children[position] = child
                child.parent = element
            del built[mark:]
            siblings = frames[-1][2]
            built.append((len(siblings), element))
            siblings.append(signature)

    def start_doctype(name, system_id, public_id, has_internal_subset) -> None:
        nonlocal doctype_name, dtd_url
        doctype_name, dtd_url = name, system_id

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
        ((_, root),) = built
        memo.entries = keys
    return Document(root, doctype_name=doctype_name, dtd_url=dtd_url)
