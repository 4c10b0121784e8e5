"""Sign-once oracle (hypothesis): the repository's cached signatures and
its raw-text fast path change nothing a caller can observe.

Random version sequences of one URL (ChangeModel edits, byte-identical
refetches, whitespace-only reformattings that parse to the same tree,
root-tag changes that restart the lineage, reverts to the first version's
text, and ``Document`` refetches)
go through ``Repository.store_xml``.  After every fetch the outcome is
compared with a reference that keeps each version only as text plus its
XIDs, re-parses both versions and signs them from scratch with
``subtree_signatures``.
"""

from __future__ import annotations

from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.diff import (
    DOC_NEW,
    DOC_UNCHANGED,
    DOC_UPDATED,
    XidSpace,
    compute_delta,
    copy_document,
    subtree_signatures,
)
from repro.errors import DiffError
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import parse, serialize

URL = "http://www.shop.example/catalog.xml"


class _ReferenceStore:
    """The store's version logic with no signature reuse and no raw skip."""

    def __init__(self) -> None:
        self.text: Optional[str] = None
        self.xids: List[Optional[int]] = []
        self.xid_space = XidSpace()
        self.signature = 0
        self.version = 0

    def _current(self):
        document = parse(self.text)
        for node, xid in zip(document.preorder(), self.xids):
            node.xid = xid
        return document

    def _keep(self, text, document) -> None:
        self.text = text
        self.xids = [node.xid for node in document.preorder()]

    def store(self, text: str):
        """Returns ``(status, delta_xml, xids, signature, version)``."""
        document = parse(text)
        signature = subtree_signatures(document.root)[id(document.root)]
        delta_xml = None
        if self.text is None:
            status = DOC_NEW
            self.xid_space.assign_fresh(document.root)
            self.version = 1
            self.signature = signature
            self._keep(text, document)
        elif signature == self.signature:
            status = DOC_UNCHANGED
        else:
            old = self._current()
            old.signatures = subtree_signatures(old.root)
            document.signatures = subtree_signatures(document.root)
            try:
                delta = compute_delta(old, document, self.xid_space)
            except DiffError:
                delta = None
                self.xid_space = XidSpace()
                self.xid_space.assign_fresh(document.root)
            self.signature = signature
            if delta is not None and not delta:
                status = DOC_UNCHANGED
            else:
                status = DOC_UPDATED
                delta_xml = None if delta is None else delta.to_xml()
                self.version += 1
                self._keep(text, document)
        return status, delta_xml, list(self.xids), self.signature, self.version


def _reformat(text: str) -> str:
    """Same tree, different bytes: whitespace-only text between tags."""
    return text.replace("><", ">\n  <")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    steps=st.lists(
        st.sampled_from(
            [
                "mutate",
                "mutate",
                "refetch",
                "reformat",
                "retag",
                "revert",
                "document",
            ]
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_store_matches_a_reference_that_signs_every_version_afresh(
    seed, steps
):
    clock = SimulatedClock(1_000_000.0)
    repository = Repository(clock=clock)
    reference = _ReferenceStore()
    change_model = ChangeModel(seed=seed)
    page = SiteGenerator(seed=seed).catalog(products=3)
    first_page = page
    text = serialize(page)
    for step in ["refetch"] + steps:
        if step == "mutate":
            page = change_model.mutate(page)
            text = serialize(page)
        elif step == "reformat":
            text = _reformat(serialize(page))
        elif step == "revert":
            page = first_page
            text = serialize(page)
        elif step == "retag":
            page = copy_document(page)
            page.root.tag = "shop" if page.root.tag != "shop" else "catalog"
            text = serialize(page)
        content = parse(text) if step == "document" else text
        clock.advance(60)
        outcome = repository.store_xml(URL, content)
        status, delta_xml, xids, signature, version = reference.store(text)
        assert outcome.status == status, step
        assert (
            None if outcome.delta is None else outcome.delta.to_xml()
        ) == delta_xml, step
        assert [node.xid for node in outcome.document.preorder()] == xids
        assert outcome.meta.signature == signature
        assert outcome.meta.version == version
        assert outcome.meta.last_accessed == clock.now()
