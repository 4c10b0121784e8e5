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

Matching also carries the old version's per-text-node word cache
(``TextNode.words``, see ``repro.xmlstore.words.text_words``) onto every
unchanged text node of the new version, so only inserted and updated text is
tokenised again.  Both caches it reads, words and subtree signatures, assume
the trees are not mutated once cached: callers edit a ``copy_document``
copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DiffError
from ..xmlstore.nodes import Document, ElementNode, Node, TextNode
from .delta import Delta, DeleteOp, InsertOp, UpdateAttributesOp, UpdateTextOp
from .signature import document_signatures
from .xids import XidSpace, require_xid

#: Beyond this product of child-list lengths the LCS falls back to a greedy
#: first-occurrence anchoring to bound memory/time on pathological fan-out.
_LCS_CELL_LIMIT = 1_000_000


def compute_delta(
    old_document: Document, new_document: Document, xid_space: XidSpace
) -> Delta:
    """Diff two versions.

    Side effects: every node of ``new_document`` receives an XID — matched
    nodes inherit the old node's XID, inserted nodes get fresh XIDs from
    ``xid_space`` — and its unchanged text nodes inherit the old nodes'
    cached words.  Both documents keep their subtree signatures
    (``document_signatures``), so a version already signed is not signed
    again.  ``old_document``'s tree is not modified.
    """
    old_root = old_document.root
    new_root = new_document.root
    if old_root.tag != new_root.tag:
        raise DiffError(
            f"root element changed from <{old_root.tag}> to <{new_root.tag}>;"
            " version lineage must be restarted"
        )
    old_signatures = document_signatures(old_document)
    new_signatures = document_signatures(new_document)
    delta = Delta()
    _match_elements(
        old_root, new_root, old_signatures, new_signatures, delta, xid_space
    )
    return delta


def _match_elements(
    old: ElementNode,
    new: ElementNode,
    old_signatures: Dict[int, int],
    new_signatures: Dict[int, int],
    delta: Delta,
    xid_space: XidSpace,
) -> None:
    """Match two same-tag elements: propagate XID, diff attrs and children."""
    new.xid = require_xid(old)
    if old.attributes != new.attributes:
        changes: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        for name in set(old.attributes) | set(new.attributes):
            before = old.attributes.get(name)
            after = new.attributes.get(name)
            if before != after:
                changes[name] = (before, after)
        delta.attribute_updates.append(
            UpdateAttributesOp(xid=new.xid, changes=changes)
        )
    _align_children(old, new, old_signatures, new_signatures, delta, xid_space)


def _align_children(
    old: ElementNode,
    new: ElementNode,
    old_signatures: Dict[int, int],
    new_signatures: Dict[int, int],
    delta: Delta,
    xid_space: XidSpace,
) -> None:
    old_children = old.children
    new_children = new.children
    old_keys = [old_signatures[id(c)] for c in old_children]
    new_keys = [new_signatures[id(c)] for c in new_children]
    anchors = _lcs_pairs(old_keys, new_keys)

    matched_old: set[int] = set()
    matched_new: set[int] = set()
    for old_index, new_index in anchors:
        _propagate_xids(old_children[old_index], new_children[new_index])
        matched_old.add(old_index)
        matched_new.add(new_index)

    # Work gap by gap between consecutive anchors, pairing same-kind nodes.
    boundaries = anchors + [(len(old_children), len(new_children))]
    previous = (-1, -1)
    deletions: List[int] = []
    for old_anchor, new_anchor in boundaries:
        gap_old = list(range(previous[0] + 1, old_anchor))
        gap_new = list(range(previous[1] + 1, new_anchor))
        previous = (old_anchor, new_anchor)
        pairs, unmatched_old, unmatched_new = _pair_gap(
            [old_children[i] for i in gap_old],
            [new_children[j] for j in gap_new],
        )
        for offset_old, offset_new in pairs:
            old_child = old_children[gap_old[offset_old]]
            new_child = new_children[gap_new[offset_new]]
            matched_old.add(gap_old[offset_old])
            matched_new.add(gap_new[offset_new])
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
                else:
                    new_child.words = old_child.words
            else:
                assert isinstance(old_child, ElementNode)
                assert isinstance(new_child, ElementNode)
                _match_elements(
                    old_child,
                    new_child,
                    old_signatures,
                    new_signatures,
                    delta,
                    xid_space,
                )
        deletions.extend(gap_old[i] for i in unmatched_old)
        for offset_new in unmatched_new:
            new_index = gap_new[offset_new]
            subtree = new_children[new_index]
            xid_space.assign_fresh(subtree)
            delta.inserts.append(
                InsertOp(
                    parent_xid=require_xid(new),
                    position=new_index,
                    subtree=subtree,
                )
            )

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


def _propagate_xids(old: Node, new: Node) -> None:
    """Copy XIDs, and the words of text nodes, across two structurally
    identical subtrees."""
    for old_node, new_node in zip(old.preorder(), new.preorder()):
        new_node.xid = old_node.xid
        if type(new_node) is TextNode:
            new_node.words = old_node.words  # type: ignore[attr-defined]


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
    # Classic DP, single pass, then backtrack.
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = lengths[i]
        below = lengths[i + 1]
        for j in range(m - 1, -1, -1):
            if left[i] == right[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    pairs: List[Tuple[int, int]] = []
    i = j = 0
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
