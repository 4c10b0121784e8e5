"""Tree node model for the XML substrate.

The XML Alerter of the paper (Section 6.3) is defined over a DOM-like tree:
for each node ``n`` it considers the pair ``(level(n), content(n))`` where
``content`` is the tag for element nodes and the text for data nodes, and it
consumes the nodes in *postorder*.  This module provides exactly that model:

* :class:`ElementNode` — tag, attributes, ordered children.
* :class:`TextNode` — character data.
* ``level`` — depth of a node (root at level 0).
* :meth:`Node.postorder` / :meth:`Node.preorder` — traversals.

Nodes also carry an optional ``xid`` (Xyleme persistent identifier, see
``repro.diff.xids``) used by the versioning subsystem to express deltas,
and an optional ``signature``, the content hash of their subtree (see
``repro.diff.signature``) that the diff anchors identical subtrees on.

Inside the repository, between the signing parse and the diff, an
element's ``children`` may also hold placeholders: the signature (an
``int``) of a subtree the stored version already holds (see
``repro.xmlstore.parser``).  No tree outside the repository holds one.

Slot defaults live here only: the constructors store every slot directly,
and so do :func:`new_element` and :func:`new_text`, the factories that
tree builders (the parser, subtree copies) use to create a node and link
it under its parent in one call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional


class Node:
    """Common behaviour of element and text nodes."""

    __slots__ = ("parent", "xid", "signature")

    parent: Optional["ElementNode"]
    #: Persistent Xyleme identifier, assigned by ``repro.diff.xids``.
    xid: Optional[int]
    #: Subtree signature, set by ``repro.diff.signature.sign_subtree``.
    signature: Optional[int]

    # -- structure -------------------------------------------------------

    @property
    def level(self) -> int:
        """Depth of the node; the document root element has level 0."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["ElementNode"]:
        """Yield parent, grandparent, ... up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def sibling_index(self) -> int:
        """Position of this node among its parent's children (0-based)."""
        if self.parent is None:
            return 0
        return self.parent.children.index(self)

    # -- traversals -------------------------------------------------------

    def preorder(self) -> Iterator["Node"]:
        """Document-order traversal (node before its children)."""
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ElementNode):
                stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["Node"]:
        """Postorder traversal (children before the node).

        This is the order the XML Alerter consumes: when a node is emitted,
        every word in its subtree has already been seen, which is what makes
        the stack-of-word-lists structure of Section 6.3 work.
        """
        # Iterative postorder: (node, expanded?) pairs.
        stack: List[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or not isinstance(node, ElementNode):
                yield node
                continue
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    # -- content ----------------------------------------------------------

    def text_content(self) -> str:
        """Concatenated character data of the subtree, in document order."""
        parts = [
            node.data for node in self.preorder() if isinstance(node, TextNode)
        ]
        return "".join(parts)

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op for a root). Returns self."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self


class ElementNode(Node):
    """An XML element: tag, attribute map, ordered list of children."""

    __slots__ = ("tag", "attributes", "children")

    def __init__(self, tag: str, attributes: Optional[Dict[str, str]] = None):
        self.parent = None
        self.xid = None
        self.signature = None
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.children: List[Node] = []

    def __repr__(self) -> str:
        return f"<ElementNode {self.tag!r} children={len(self.children)}>"

    # -- mutation ----------------------------------------------------------

    def append(self, child: Node) -> Node:
        """Add ``child`` as the last child and return it."""
        child.detach()
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert ``child`` at ``index`` among the children and return it."""
        child.detach()
        child.parent = self
        self.children.insert(index, child)
        return child

    def append_text(self, data: str) -> "TextNode":
        """Convenience: append a text child."""
        node = TextNode(data)
        self.append(node)
        return node

    def make_child(
        self, tag: str, text: Optional[str] = None, **attributes: str
    ) -> "ElementNode":
        """Convenience builder: append ``<tag attributes>text</tag>``."""
        child = ElementNode(tag, attributes)
        if text is not None:
            child.append_text(text)
        self.append(child)
        return child

    # -- queries -----------------------------------------------------------

    def element_children(self) -> List["ElementNode"]:
        return [c for c in self.children if isinstance(c, ElementNode)]

    def find_all(self, tag: str) -> Iterator["ElementNode"]:
        """Yield all descendant elements (including self) with ``tag``."""
        for node in self.preorder():
            if isinstance(node, ElementNode) and node.tag == tag:
                yield node

    def first(self, tag: str) -> Optional["ElementNode"]:
        """First descendant element with ``tag`` in document order."""
        return next(self.find_all(tag), None)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup, mirroring ``dict.get``."""
        return self.attributes.get(name, default)

    # -- size metrics (used by alerter benchmarks) ---------------------------

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        return sum(1 for _ in self.preorder())

    def max_depth(self) -> int:
        """Depth of the deepest descendant relative to this node."""
        own_level = self.level
        return max(node.level - own_level for node in self.preorder())


class TextNode(Node):
    """Character data.

    ``words`` caches the node's distinct words, filled on first use by
    ``repro.xmlstore.words.text_words``; like the ``signature`` slot it
    assumes ``data`` never changes once set.
    """

    __slots__ = ("data", "words")

    def __init__(self, data: str):
        self.parent = None
        self.xid = None
        self.signature = None
        self.data = data
        self.words: Optional[FrozenSet[str]] = None

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"<TextNode {preview!r}>"


_new_node = object.__new__


def new_element(
    parent: Optional[ElementNode],
    tag: str,
    attributes: Dict[str, str],
    xid: Optional[int] = None,
    signature: Optional[int] = None,
    children: Optional[List[Node]] = None,
) -> ElementNode:
    """Create an element and append it to ``parent`` (when given).

    Unlike the constructor, ``attributes`` is taken as is, not copied: the
    caller hands over a dict no other node holds.  ``parent`` must be an
    element still under construction, so there is nothing to detach.  So
    is ``children`` when given: it becomes the element's list, and the
    caller points each child's ``parent`` at the element.
    """
    node = _new_node(ElementNode)
    node.parent = parent
    node.xid = xid
    node.signature = signature
    node.tag = tag
    node.attributes = attributes
    node.children = [] if children is None else children
    if parent is not None:
        parent.children.append(node)
    return node


def new_text(
    parent: Optional[ElementNode],
    data: str,
    xid: Optional[int] = None,
    signature: Optional[int] = None,
) -> TextNode:
    """Create a text node and append it to ``parent`` (when given)."""
    node = _new_node(TextNode)
    node.parent = parent
    node.xid = xid
    node.signature = signature
    node.data = data
    node.words = None
    if parent is not None:
        parent.children.append(node)
    return node


class Document:
    """A parsed XML document: prolog-free wrapper around the root element.

    Keeps the doctype name / system id when a ``<!DOCTYPE ...>`` declaration
    was present, because several atomic conditions of the subscription
    language (``DTD = string``, ``DTDID = integer``) key on it.

    Its nodes cache their subtree signatures (``Node.signature``, set by
    ``repro.diff.signature.document_signature``; the document is unsigned
    while ``root.signature`` is None) and its text nodes their words
    (``TextNode.words``).  A tree carrying either cache must therefore not
    be mutated (XIDs and the DOCTYPE aside, which neither cache covers):
    callers that edit a document edit a ``copy_document`` copy, which
    starts with both caches empty.
    """

    __slots__ = ("root", "doctype_name", "dtd_url")

    def __init__(
        self,
        root: ElementNode,
        doctype_name: Optional[str] = None,
        dtd_url: Optional[str] = None,
    ):
        self.root = root
        self.doctype_name = doctype_name
        self.dtd_url = dtd_url

    def __repr__(self) -> str:
        return f"<Document root={self.root.tag!r} dtd={self.dtd_url!r}>"

    def postorder(self) -> Iterator[Node]:
        return self.root.postorder()

    def preorder(self) -> Iterator[Node]:
        return self.root.preorder()

    def size(self) -> int:
        return self.root.subtree_size()

    def depth(self) -> int:
        return self.root.max_depth()
