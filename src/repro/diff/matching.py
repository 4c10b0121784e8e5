"""Diff computation: match an old (XID-carrying) version against a new parse.

This is a simplified XyDiff [17]: subtree signatures anchor identical
subtrees, an LCS alignment per parent preserves order, and same-tag elements
left unmatched in a gap are paired in order and diffed recursively (these
become *updates*).  Moves across parents are represented as delete+insert —
a documented simplification; the monitoring subsystem only needs to classify
elements as new / updated / deleted (Section 6.3).

If the root tags differ the documents are considered unrelated and
:class:`~repro.errors.DiffError` is raised; callers (the repository) restart
the version lineage in that case.

The new version takes over each anchored subtree of the old one: the old
node replaces its identical twin in the new children list, and keeps its
XIDs, its subtree signatures (``Node.signature``) and its text nodes'
cached words (``TextNode.words``, see ``repro.xmlstore.words.text_words``).
So only the new version's changed nodes and their ancestors are new
objects, and only inserted and updated text is tokenised again.  Both
caches assume the trees are not mutated once cached: callers edit a
``copy_document`` copy.

The new version may come from the repository's signing parse
(``repro.xmlstore.parser.parse(source, memo)``), whose children lists
hold a *placeholder*, the subtree's signature (an ``int``), wherever the
old version holds an identical subtree.  The diff resolves every one: an
anchored placeholder is taken over like any anchored subtree; one left in
a gap, or inside an inserted subtree, becomes a copy of an old subtree
with that signature, found by a walk of the old version that goes only
as far as the lookups need.  A copy is one node deep, and its
children are placeholders again, so a gap-paired copy takes over the old
element's unchanged children.  If no old subtree has the signature,
:class:`~repro.errors.DiffError` is raised and the repository restarts
the lineage.  After ``compute_delta`` the new version holds no
placeholder.

``compute_delta`` also hands back, beside the delta, the new-version
elements its operations touch, so change classification reads them
instead of indexing both trees by XID.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DiffError
from ..xmlstore.nodes import (
    Document,
    ElementNode,
    Node,
    TextNode,
    new_element,
    new_text,
)
from .delta import Delta, DeleteOp, InsertOp, UpdateAttributesOp, UpdateTextOp
from .signature import document_signature
from .xids import XidSpace, require_xid

#: Beyond this product of child-list lengths the LCS falls back to a greedy
#: first-occurrence anchoring to bound memory/time on pathological fan-out.
_LCS_CELL_LIMIT = 1_000_000


def compute_delta(
    old_document: Document,
    new_document: Document,
    xid_space: XidSpace,
    touched: Optional[List[ElementNode]] = None,
) -> Delta:
    """Diff two versions.

    Side effects: both documents are signed if they were not
    (``document_signature``).  ``new_document`` takes over every subtree
    of ``old_document`` that it holds unchanged: the old subtree, with its
    XIDs, signatures and words, moves into the new tree in place of its
    twin or placeholder.  Every other placeholder becomes a copy of an
    old subtree (see the module docstring).  Every other node of
    ``new_document`` receives an XID — matched nodes inherit the old
    node's, inserted nodes get fresh ones from ``xid_space``.

    Afterwards ``old_document`` is still correct read top-down, since its
    children lists are intact, but a moved node's ``parent`` is in the new
    tree, so walking upward from it leaves the old version.  An old
    version must therefore never be diffed again.

    When ``touched`` is given, the new-version element each operation
    touches is appended to it, in the order of the delta's operation
    lists: the parent of each updated text node, each element whose
    attributes changed, and the parent of each insertion and of each
    deletion.  All of them are matched elements.  They are kept beside
    the delta, never in it: a delta joins the version history, and these
    nodes belong to the new tree.
    """
    old_root = old_document.root
    new_root = new_document.root
    if old_root.tag != new_root.tag:
        raise DiffError(
            f"root element changed from <{old_root.tag}> to <{new_root.tag}>;"
            " version lineage must be restarted"
        )
    document_signature(old_document)
    document_signature(new_document)
    matcher = _Matcher(xid_space, old_root)
    matcher.match_elements(old_root, new_root)
    if touched is not None:
        touched.extend(
            chain(
                matcher.text_parents,
                matcher.attribute_elements,
                matcher.insert_parents,
                matcher.delete_parents,
            )
        )
    return matcher.delta


class _Matcher:
    """One diff's state: the delta being built and, one list per operation
    list, the new-version elements it touches."""

    def __init__(self, xid_space: XidSpace, old_root: ElementNode):
        self.xid_space = xid_space
        self.delta = Delta()
        self.text_parents: List[ElementNode] = []
        self.attribute_elements: List[ElementNode] = []
        self.insert_parents: List[ElementNode] = []
        self.delete_parents: List[ElementNode] = []
        # Signature -> a node of the old version with it, filled by one
        # walk of the old version that goes only as far as the lookups
        # need; ``_unwalked`` holds the elements whose children it has
        # not indexed yet.
        self._old_nodes: Dict[int, Node] = {old_root.signature: old_root}  # type: ignore[dict-item]
        self._unwalked: List[ElementNode] = [old_root]

    def match_elements(self, old: ElementNode, new: ElementNode) -> None:
        """Match two same-tag elements: propagate XID, diff attrs and
        children."""
        new.xid = require_xid(old)
        if old.attributes != new.attributes:
            changes: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
            for name in set(old.attributes) | set(new.attributes):
                before = old.attributes.get(name)
                after = new.attributes.get(name)
                if before != after:
                    changes[name] = (before, after)
            self.delta.attribute_updates.append(
                UpdateAttributesOp(xid=new.xid, changes=changes)
            )
            self.attribute_elements.append(new)
        self.align_children(old, new)

    def align_children(self, old: ElementNode, new: ElementNode) -> None:
        delta = self.delta
        old_children = old.children
        new_children = new.children
        anchors = _lcs_pairs(
            [child.signature for child in old_children],
            [c if c.__class__ is int else c.signature for c in new_children],
        )

        # Take over each anchored subtree (or placeholder): it is
        # identical, down to its XIDs, signatures and words.
        for old_index, new_index in anchors:
            old_child = old_children[old_index]
            new_children[new_index] = old_child
            old_child.parent = new

        # Work gap by gap between consecutive anchors, pairing same-kind nodes.
        boundaries = anchors + [(len(old_children), len(new_children))]
        previous = (-1, -1)
        deletions: List[int] = []
        for old_anchor, new_anchor in boundaries:
            gap_old = list(range(previous[0] + 1, old_anchor))
            gap_new = list(range(previous[1] + 1, new_anchor))
            previous = (old_anchor, new_anchor)
            if not (gap_old or gap_new):
                continue
            for new_index in gap_new:
                child = new_children[new_index]
                if child.__class__ is int:
                    new_children[new_index] = self._copy_of(child, new)
            pairs, unmatched_old, unmatched_new = _pair_gap(
                [old_children[i] for i in gap_old],
                [new_children[j] for j in gap_new],
            )
            for offset_old, offset_new in pairs:
                old_child = old_children[gap_old[offset_old]]
                new_child = new_children[gap_new[offset_new]]
                if isinstance(old_child, TextNode):
                    assert isinstance(new_child, TextNode)
                    new_child.xid = require_xid(old_child)
                    if old_child.data != new_child.data:
                        delta.text_updates.append(
                            UpdateTextOp(
                                xid=new_child.xid,
                                old_text=old_child.data,
                                new_text=new_child.data,
                            )
                        )
                        self.text_parents.append(new)
                else:
                    assert isinstance(old_child, ElementNode)
                    assert isinstance(new_child, ElementNode)
                    self.match_elements(old_child, new_child)
            deletions.extend(gap_old[i] for i in unmatched_old)
            for offset_new in unmatched_new:
                new_index = gap_new[offset_new]
                subtree = new_children[new_index]
                if subtree.__class__ is ElementNode:
                    self._resolve(subtree)
                self.xid_space.assign_fresh(subtree)
                delta.inserts.append(
                    InsertOp(
                        parent_xid=require_xid(new),
                        position=new_index,
                        subtree=subtree,
                    )
                )
                self.insert_parents.append(new)

        # Record deletions right-to-left so they apply cleanly by old position.
        for old_index in sorted(deletions, reverse=True):
            subtree = old_children[old_index]
            delta.deletes.append(
                DeleteOp(
                    xid=require_xid(subtree),
                    parent_xid=require_xid(old),
                    position=old_index,
                    subtree=subtree,
                )
            )
            self.delete_parents.append(new)

    def _copy_of(self, signature: int, parent: ElementNode) -> Node:
        """A copy, under ``parent``, of the old subtree the placeholder
        ``signature`` stands for.

        The copy is one node deep: an element copy's children are the
        placeholders of the old element's children, which the caller
        resolves like any other.  It carries the signature, but no XID
        and no words, like the node a plain parse would have built.
        """
        old_nodes = self._old_nodes
        unwalked = self._unwalked
        while signature not in old_nodes:
            if not unwalked:
                raise DiffError(
                    f"no subtree of the old version has signature {signature}"
                )
            for child in unwalked.pop().children:
                old_nodes.setdefault(child.signature, child)  # type: ignore[arg-type]
                if child.__class__ is ElementNode:
                    unwalked.append(child)  # type: ignore[arg-type]
        node = old_nodes[signature]
        if type(node) is TextNode:
            copy: Node = new_text(None, node.data, None, signature)
        else:
            copy = new_element(
                None,
                node.tag,  # type: ignore[attr-defined]
                dict(node.attributes),  # type: ignore[attr-defined]
                None,
                signature,
                [child.signature for child in node.children],  # type: ignore
            )
        copy.parent = parent
        return copy

    def _resolve(self, element: ElementNode) -> None:
        """Replace every placeholder under ``element`` by a copy."""
        children = element.children
        for index, child in enumerate(children):
            if child.__class__ is int:
                child = children[index] = self._copy_of(child, element)
            if child.__class__ is ElementNode:
                self._resolve(child)


def _pair_gap(
    old_nodes: Sequence[Node], new_nodes: Sequence[Node]
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Pair non-anchor nodes of a gap for recursive diffing.

    Elements pair with same-tag elements (LCS over tag sequences so order is
    preserved); text nodes pair with text nodes in order.  Returns (pairs,
    unmatched old offsets, unmatched new offsets).
    """
    old_tags = [
        node.tag if isinstance(node, ElementNode) else "\x00text"
        for node in old_nodes
    ]
    new_tags = [
        node.tag if isinstance(node, ElementNode) else "\x00text"
        for node in new_nodes
    ]
    pairs = _lcs_pairs(old_tags, new_tags)
    matched_old = {i for i, _ in pairs}
    matched_new = {j for _, j in pairs}
    unmatched_old = [i for i in range(len(old_nodes)) if i not in matched_old]
    unmatched_new = [j for j in range(len(new_nodes)) if j not in matched_new]
    return pairs, unmatched_old, unmatched_new


def _lcs_pairs(left: Sequence, right: Sequence) -> List[Tuple[int, int]]:
    """Longest-common-subsequence index pairs between two sequences.

    Falls back to greedy in-order matching when the DP table would exceed
    :data:`_LCS_CELL_LIMIT` cells.
    """
    n, m = len(left), len(right)
    if n == 0 or m == 0:
        return []
    if n * m > _LCS_CELL_LIMIT:
        return _greedy_pairs(left, right)
    # The backtrack below pairs equal leading items as it meets them, and
    # the table past them depends only on what follows: pair a common
    # prefix directly and run the DP on the rest.
    start = 0
    while start < n and start < m and left[start] == right[start]:
        start += 1
    pairs: List[Tuple[int, int]] = [(k, k) for k in range(start)]
    # Classic DP, single pass, then backtrack.
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, start - 1, -1):
        row = lengths[i]
        below = lengths[i + 1]
        for j in range(m - 1, start - 1, -1):
            if left[i] == right[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    i = j = start
    while i < n and j < m:
        if left[i] == right[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def _greedy_pairs(left: Sequence, right: Sequence) -> List[Tuple[int, int]]:
    """Order-preserving greedy matching (used above the LCS size limit)."""
    pairs: List[Tuple[int, int]] = []
    j = 0
    for i, item in enumerate(left):
        k = j
        while k < len(right):
            if right[k] == item:
                pairs.append((i, k))
                j = k + 1
                break
            k += 1
    return pairs
