"""Delta model: the operations a diff produces and their XML form.

The paper shows deltas as XML (Section 5.2)::

    <AmsterdamPaintings-delta>
      <inserted ID="556" parent="556" position="4"> ... </inserted>
      <updated ID="332" note="..."/>
    </AmsterdamPaintings-delta>

We keep that shape.  A :class:`Delta` is an ordered list of operations over
XIDs:

* :class:`InsertOp` — a new subtree under ``parent`` at ``position``.
* :class:`DeleteOp` — removal of the subtree rooted at ``xid`` (the removed
  subtree is carried so that deltas are invertible, the property [17] relies
  on for version reconstruction in both directions).
* :class:`UpdateTextOp` — the character data of text node ``xid`` changed.
* :class:`UpdateAttributesOp` — attribute changes on element ``xid``.

Operations are stored in *application order*: all deletes (bottom-up,
right-to-left), then all inserts (top-down, left-to-right), then updates.
``repro.diff.apply`` relies on this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..xmlstore.nodes import (
    Document,
    ElementNode,
    Node,
    TextNode,
    new_element,
    new_text,
)
from ..xmlstore.serializer import serialize


@dataclass
class InsertOp:
    parent_xid: int
    position: int
    #: Root of the inserted subtree; nodes carry their (freshly assigned)
    #: XIDs so the delta fully determines the new version's identifiers.
    subtree: Node

    kind: str = field(default="inserted", init=False)

    @property
    def xid(self) -> int:
        assert self.subtree.xid is not None
        return self.subtree.xid


@dataclass
class DeleteOp:
    xid: int
    parent_xid: int
    position: int
    #: The removed subtree (with XIDs) — needed to invert the delta.
    subtree: Node

    kind: str = field(default="deleted", init=False)


@dataclass
class UpdateTextOp:
    xid: int
    old_text: str
    new_text: str

    kind: str = field(default="updated", init=False)


@dataclass
class UpdateAttributesOp:
    xid: int
    #: name -> (old value or None, new value or None)
    changes: Dict[str, Tuple[Optional[str], Optional[str]]]

    kind: str = field(default="updated-attributes", init=False)


DeltaOp = object  # union marker for documentation purposes


@dataclass
class Delta:
    """An ordered, invertible set of edit operations between two versions."""

    deletes: List[DeleteOp] = field(default_factory=list)
    inserts: List[InsertOp] = field(default_factory=list)
    text_updates: List[UpdateTextOp] = field(default_factory=list)
    attribute_updates: List[UpdateAttributesOp] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(
            self.deletes
            or self.inserts
            or self.text_updates
            or self.attribute_updates
        )

    def __len__(self) -> int:
        return (
            len(self.deletes)
            + len(self.inserts)
            + len(self.text_updates)
            + len(self.attribute_updates)
        )

    def operations(self) -> Iterator[object]:
        """All operations in application order."""
        yield from self.deletes
        yield from self.inserts
        yield from self.text_updates
        yield from self.attribute_updates

    # -- XML form ----------------------------------------------------------

    def to_element(self, name: str = "delta") -> ElementNode:
        """Render the delta as an XML element in the paper's style."""
        root = ElementNode(name)
        for delete in self.deletes:
            element = root.make_child(
                "deleted",
                ID=str(delete.xid),
                parent=str(delete.parent_xid),
                position=str(delete.position),
            )
            _copy_subtree(delete.subtree, element)
        for insert in self.inserts:
            element = root.make_child(
                "inserted",
                ID=str(insert.xid),
                parent=str(insert.parent_xid),
                position=str(insert.position),
            )
            _copy_subtree(insert.subtree, element)
        for update in self.text_updates:
            root.make_child(
                "updated",
                ID=str(update.xid),
                **{"old-text": update.old_text, "new-text": update.new_text},
            )
        for attr_update in self.attribute_updates:
            element = root.make_child(
                "updated-attributes", ID=str(attr_update.xid)
            )
            for attr_name, (old, new) in sorted(attr_update.changes.items()):
                change = element.make_child("attribute", name=attr_name)
                if old is not None:
                    change.attributes["old"] = old
                if new is not None:
                    change.attributes["new"] = new
        return root

    def to_xml(self, name: str = "delta") -> str:
        return serialize(self.to_element(name))

    # -- inversion ---------------------------------------------------------

    def inverted(self) -> "Delta":
        """The delta that maps the new version back onto the old one.

        Its op subtrees are copies: a diff's own subtrees still hang in
        their version trees, and a version history holding them through
        their ``parent`` chains would keep each whole old version alive.
        """
        inverse = Delta()
        # Inserts become deletes and vice versa; apply order is preserved by
        # construction (Delta always applies deletes before inserts).
        for insert in self.inserts:
            inverse.deletes.append(
                DeleteOp(
                    xid=insert.xid,
                    parent_xid=insert.parent_xid,
                    position=insert.position,
                    subtree=_copy_subtree(insert.subtree),
                )
            )
        # Deletes were recorded bottom-up/right-to-left against the *old*
        # tree; replaying them as inserts must go top-down/left-to-right,
        # i.e. in reverse order.
        for delete in reversed(self.deletes):
            inverse.inserts.append(
                InsertOp(
                    parent_xid=delete.parent_xid,
                    position=delete.position,
                    subtree=_copy_subtree(delete.subtree),
                )
            )
        for update in self.text_updates:
            inverse.text_updates.append(
                UpdateTextOp(
                    xid=update.xid,
                    old_text=update.new_text,
                    new_text=update.old_text,
                )
            )
        for attr_update in self.attribute_updates:
            inverse.attribute_updates.append(
                UpdateAttributesOp(
                    xid=attr_update.xid,
                    changes={
                        name: (new, old)
                        for name, (old, new) in attr_update.changes.items()
                    },
                )
            )
        return inverse


def _copy_subtree(node: Node, parent: Optional[ElementNode] = None) -> Node:
    """Deep copy of a subtree, preserving XIDs, appended to ``parent``.

    The copy's root has no parent unless one is given, so it pins nothing
    of the tree it was copied from.
    """
    if isinstance(node, TextNode):
        return new_text(parent, node.data, node.xid)
    assert isinstance(node, ElementNode)
    copy = new_element(parent, node.tag, dict(node.attributes), node.xid)
    for child in node.children:
        _copy_subtree(child, copy)
    return copy


def copy_document(document: Document) -> Document:
    """Deep copy of a whole document, preserving XIDs."""
    root_copy = _copy_subtree(document.root)
    assert isinstance(root_copy, ElementNode)
    return Document(
        root_copy,
        doctype_name=document.doctype_name,
        dtd_url=document.dtd_url,
    )
