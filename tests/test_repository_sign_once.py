"""Sign-once oracle (hypothesis): the repository's cached signatures and
words, its raw-text fast path and its delta-driven index change nothing a
caller can observe.

Random version sequences of one URL (ChangeModel edits, byte-identical
refetches, whitespace-only reformattings that parse to the same tree,
root-tag changes that restart the lineage, reverts to the first version's
text, ``Document`` refetches, DOCTYPE-only changes and fetches of the same
URL as HTML) go through the repository, next to a second, fixed catalog.
After every fetch:

* the outcome is compared with a reference that keeps each version only
  as text plus its XIDs, re-parses both versions and signs them afresh
  with ``sign_subtree``;
* the index equals one rebuilt from ``Repository.document()`` of every
  stored document (``index_oracle``);
* every text node of the current and the retained versions has ``words``
  unset or equal to ``unique_words`` of its text;
* after an XML fetch, the metadata, the stored document and the DTD index
  carry that fetch's DOCTYPE.
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
    page_signature,
    sign_subtree,
)
from repro.errors import DiffError
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import parse, serialize

from .index_oracle import assert_index_matches_rebuild, assert_words_cache_sound

URL = "http://www.shop.example/catalog.xml"
OTHER_URL = "http://www.other.example/catalog.xml"
#: DTDs the ``doctype`` step cycles through (None drops the DOCTYPE).
DTD_CYCLE = ["http://dtd.example/a.dtd", None, "http://dtd.example/b.dtd"]


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
        signature = sign_subtree(document.root)
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
            sign_subtree(old.root)
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

    def store_html(self, html: str) -> str:
        """An HTML fetch of the URL: only the page signature is kept."""
        signature = page_signature(html)
        if signature == self.signature:
            return DOC_UNCHANGED
        self.signature = signature
        self.version += 1
        return DOC_UPDATED


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
                "doctype",
                "html",
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
    repository.store_xml(
        OTHER_URL, serialize(SiteGenerator(seed=seed + 1).catalog(products=3))
    )
    page = SiteGenerator(seed=seed).catalog(products=3)
    first_page = page
    text = serialize(page)
    doctypes = 0
    for step in ["refetch"] + steps:
        clock.advance(60)
        if step == "html":
            html = f"<html><body>{len(steps)} {seed}</body></html>"
            outcome = repository.store_html(URL, html)
            assert outcome.status == reference.store_html(html)
            assert outcome.meta.version == reference.version
            assert_index_matches_rebuild(repository)
            continue
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
        elif step == "doctype":
            page = copy_document(page)
            page.dtd_url = DTD_CYCLE[doctypes % len(DTD_CYCLE)]
            doctypes += 1
            text = serialize(page)
        content = parse(text) if step == "document" else text
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

        doc_id = outcome.meta.doc_id
        dtd_url = parse(text).dtd_url
        dtd_registry = repository.classifier.dtd_registry
        assert outcome.meta.dtd_url == dtd_url
        assert outcome.meta.dtd_id == (
            None if dtd_url is None else dtd_registry.id_for(dtd_url)
        )
        assert repository.document(doc_id).dtd_url == dtd_url
        if dtd_url is not None:
            assert doc_id in repository.indexes.documents_with_dtd(dtd_url)

        assert_index_matches_rebuild(repository)
        assert_words_cache_sound(outcome.document)
        for retained in repository.retained_versions(doc_id):
            assert_words_cache_sound(repository.version(doc_id, retained))
