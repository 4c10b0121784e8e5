"""Element-level change classification on top of a delta.

The XML Alerter's atomic conditions are of the form ``new tag``,
``updated tag``, ``deleted tag`` (optionally with ``contains word``), see
Sections 5.1 and 6.3.  Given a delta this module classifies the elements of
the two versions:

* **new** — every element inside an inserted subtree;
* **deleted** — every element inside a deleted subtree;
* **updated** — every *matched* element whose subtree was touched (a text or
  attribute change, an insertion or a deletion strictly below it); the
  classification propagates to ancestors so that ``updated Product`` fires
  when a ``<price>`` nested in a product changes.

Classification reads only nodes the diff already holds: the inserted and
deleted subtrees carried by the delta's operations (the in-document nodes
of the new and the old version) and the touched elements ``compute_delta``
collects beside the delta.  It builds no XID index of either tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Set

from ..errors import DiffError
from ..xmlstore.nodes import ElementNode, Node
from .delta import Delta

#: Document-level statuses used by the subscription language (Section 5.1):
#: ``change-kind self`` with kind in new / updated / unchanged / deleted.
DOC_NEW = "new"
DOC_UPDATED = "updated"
DOC_UNCHANGED = "unchanged"
DOC_DELETED = "deleted"


@dataclass
class DocumentChanges:
    """Per-tag element change sets between two versions of one document."""

    new_elements: List[ElementNode] = field(default_factory=list)
    updated_elements: List[ElementNode] = field(default_factory=list)
    deleted_elements: List[ElementNode] = field(default_factory=list)

    def by_kind(self, kind: str) -> List[ElementNode]:
        if kind == DOC_NEW:
            return self.new_elements
        if kind == DOC_UPDATED:
            return self.updated_elements
        if kind == DOC_DELETED:
            return self.deleted_elements
        raise DiffError(f"unknown change kind {kind!r}")

    def tags(self, kind: str) -> Set[str]:
        return {element.tag for element in self.by_kind(kind)}

    def is_empty(self) -> bool:
        return not (
            self.new_elements or self.updated_elements or self.deleted_elements
        )


def classify_changes(
    delta: Delta, touched: List[ElementNode]
) -> DocumentChanges:
    """Classify elements as new / updated / deleted given a computed delta
    and the elements ``compute_delta`` touched for it (its ``touched``
    list).

    New and deleted elements are listed in document order, subtree by
    subtree in operation order.  Updated elements are each touched element
    followed by its ancestors not listed yet, in the order ``touched``
    holds them.  Every touched element and each of its ancestors is
    matched, so none of them is new.
    """
    changes = DocumentChanges()
    if not delta:
        return changes
    for insert in delta.inserts:
        changes.new_elements.extend(_elements(insert.subtree))
    for delete in delta.deletes:
        changes.deleted_elements.extend(_elements(delete.subtree))

    # Updated: matched elements touched directly or via a descendant edit.
    updated = changes.updated_elements
    seen: Set[int] = set()
    for element in touched:
        while element is not None and id(element) not in seen:
            seen.add(id(element))
            updated.append(element)
            element = element.parent
    return changes


def _elements(root: Node) -> Iterator[ElementNode]:
    """The elements of ``root``'s subtree, in document order."""
    for node in root.preorder():
        if isinstance(node, ElementNode):
            yield node


def document_status(delta: Delta) -> str:
    """Doc-level status for a refetched, previously warehoused document."""
    return DOC_UPDATED if delta else DOC_UNCHANGED
