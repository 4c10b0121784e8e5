"""Versioning subsystem: XIDs, subtree signatures, deltas, change classes.

Replaces the XyDiff machinery of [17] that the paper's element-level
monitoring and ``continuous delta`` queries depend on.

Typical flow::

    space = XidSpace()
    space.assign_fresh(v1.root)            # first version enters the store
    touched = []                           # elements the delta touches
    delta = compute_delta(v1, v2, space, touched)  # v2 nodes get XIDs too
    changes = classify_changes(delta, touched)
    v2_again = apply_delta(v1, delta)      # reconstruction
    v1_again = apply_delta(v2, delta.inverted())

``compute_delta`` moves v1's unchanged subtrees into v2, so afterwards v1
is only read top-down (copied, serialized, applied to), never diffed again.
"""

from .annotate import annotate_changes, render_text_diff
from .apply import apply_delta
from .changes import (
    DOC_DELETED,
    DOC_NEW,
    DOC_UNCHANGED,
    DOC_UPDATED,
    DocumentChanges,
    classify_changes,
    document_status,
)
from .delta import (
    Delta,
    DeleteOp,
    InsertOp,
    UpdateAttributesOp,
    UpdateTextOp,
    copy_document,
)
from .matching import compute_delta
from .signature import (
    SignatureMemo,
    document_signature,
    page_signature,
    sign_subtree,
)
from .xids import XidSpace, index_by_xid, max_xid, space_for

__all__ = [
    "annotate_changes",
    "render_text_diff",
    "apply_delta",
    "DOC_DELETED",
    "DOC_NEW",
    "DOC_UNCHANGED",
    "DOC_UPDATED",
    "DocumentChanges",
    "classify_changes",
    "document_status",
    "Delta",
    "DeleteOp",
    "InsertOp",
    "UpdateAttributesOp",
    "UpdateTextOp",
    "copy_document",
    "compute_delta",
    "document_signature",
    "page_signature",
    "SignatureMemo",
    "sign_subtree",
    "XidSpace",
    "index_by_xid",
    "max_xid",
    "space_for",
]
