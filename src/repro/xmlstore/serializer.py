"""XML serializer: node tree -> string.

Round-trips with ``repro.xmlstore.parser`` (modulo insignificant whitespace
when ``indent`` is used).  Reports, deltas and archived documents are all
emitted through this module.
"""

from __future__ import annotations

from typing import List, Union

from .nodes import Document, ElementNode, Node, TextNode

# A conformant parser turns a raw CR into LF, and tab, LF or CR inside an
# attribute value into a space; character references survive both.
_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [
    ('"', "&quot;"),
    ("\t", "&#9;"),
    ("\n", "&#10;"),
]


def escape_text(data: str) -> str:
    for raw, escaped in _TEXT_ESCAPES:
        data = data.replace(raw, escaped)
    return data


def escape_attribute(data: str) -> str:
    for raw, escaped in _ATTR_ESCAPES:
        data = data.replace(raw, escaped)
    return data


def serialize(
    node: Union[Document, Node], indent: int = 0, xml_declaration: bool = False
) -> str:
    """Serialize a document or subtree to an XML string.

    ``indent=0`` produces compact output that parses back to an identical
    tree; ``indent>0`` pretty-prints (adding whitespace-only text nodes that
    the default parser drops again).
    """
    parts: List[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if indent:
            parts.append("\n")
    if isinstance(node, Document):
        if node.dtd_url is not None:
            parts.append(
                f'<!DOCTYPE {node.doctype_name or node.root.tag} '
                f'SYSTEM "{node.dtd_url}">'
            )
            if indent:
                parts.append("\n")
        root: Node = node.root
    else:
        root = node
    _serialize_node(root, parts, indent, 0)
    return "".join(parts)


def _serialize_node(
    node: Node, parts: List[str], indent: int, depth: int
) -> None:
    pad = " " * (indent * depth) if indent else ""
    newline = "\n" if indent else ""
    if isinstance(node, TextNode):
        parts.append(f"{pad}{escape_text(node.data)}{newline}")
        return
    assert isinstance(node, ElementNode)
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in node.attributes.items()
    )
    if not node.children:
        parts.append(f"{pad}<{node.tag}{attrs}/>{newline}")
        return
    only_text = all(isinstance(c, TextNode) for c in node.children)
    if only_text:
        text = "".join(escape_text(c.data) for c in node.children)  # type: ignore[attr-defined]
        parts.append(f"{pad}<{node.tag}{attrs}>{text}</{node.tag}>{newline}")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>{newline}")
    for child in node.children:
        _serialize_node(child, parts, indent, depth + 1)
    parts.append(f"{pad}</{node.tag}>{newline}")
