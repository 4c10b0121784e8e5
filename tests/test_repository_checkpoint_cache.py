"""Checkpoint-cache oracle (hypothesis): a stored document's cached
checkpoint entry never goes stale.

``Repository.state_dict`` writes each current version as the text it was
parsed from and caches the encoded entry (``xml``, ``xids``,
``next_xid``) until the document stores a new version.  Random version
chains of one URL mix ChangeModel updates, byte-identical refetches,
DOCTYPE-only changes, ``Document`` inputs (new and unchanged trees),
root-tag changes that restart the lineage, reverts, fetches of the same
URL as HTML and restores into a fresh repository, next to a second, fixed
catalog.  Every text is produced by ``serialize``, so the text a version
was parsed from is also its from-scratch encoding.  After every fetch:

* ``state_dict()`` equals an encoding made from scratch: the metadata,
  ``serialize`` of the current version, its preorder XIDs and the XID
  space's next XID, for every document;
* restoring it into an empty repository gives equal trees (DOCTYPE
  included), XIDs and next XIDs, and the same ``state_dict()`` back.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.diff import copy_document
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import parse, serialize

URL = "http://www.shop.example/catalog.xml"
OTHER_URL = "http://www.other.example/catalog.xml"
#: DTDs the ``doctype`` step cycles through (None drops the DOCTYPE).
DTD_CYCLE = ["http://dtd.example/a.dtd", None, "http://dtd.example/b.dtd"]


def from_scratch(repository):
    """What ``state_dict()["documents"]`` must hold, encoded afresh."""
    documents = []
    for stored in repository._docs.values():
        meta = dict(vars(stored.meta))
        del meta["filename"]
        entry = {"meta": meta}
        if stored.current is not None:
            entry["xml"] = serialize(stored.current)
            entry["xids"] = [node.xid for node in stored.current.preorder()]
            entry["next_xid"] = stored.xid_space.next_xid
        documents.append(entry)
    return documents


def restored(state):
    repository = Repository(clock=SimulatedClock(1_000_000.0))
    repository.restore_state(state)
    return repository


def assert_same_versions(expected, actual):
    assert expected._docs.keys() == actual._docs.keys()
    for doc_id, stored in expected._docs.items():
        other = actual._docs[doc_id]
        if stored.current is None:
            assert other.current is None
            continue
        assert serialize(other.current) == serialize(stored.current)
        assert other.current.doctype_name == stored.current.doctype_name
        assert [n.xid for n in other.current.preorder()] == [
            n.xid for n in stored.current.preorder()
        ]
        assert other.xid_space.next_xid == stored.xid_space.next_xid


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    steps=st.lists(
        st.sampled_from(
            [
                "mutate",
                "mutate",
                "refetch",
                "doctype",
                "document",
                "same-document",
                "retag",
                "revert",
                "html",
                "restore",
            ]
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_checkpoint_entries_match_a_from_scratch_encoding(seed, steps):
    clock = SimulatedClock(1_000_000.0)
    repository = Repository(clock=clock)
    change_model = ChangeModel(seed=seed)
    repository.store_xml(
        OTHER_URL, serialize(SiteGenerator(seed=seed + 1).catalog(products=3))
    )
    page = SiteGenerator(seed=seed).catalog(products=3)
    first_page = page
    doctypes = 0
    for step in ["refetch"] + steps:
        clock.advance(60)
        if step == "restore":
            repository = restored(repository.state_dict())
            repository.clock = clock
        elif step == "html":
            repository.store_html(URL, f"<html><body>{seed}</body></html>")
        else:
            if step == "mutate":
                page = change_model.mutate(page)
            elif step == "revert":
                page = first_page
            elif step == "retag":
                page = copy_document(page)
                page.root.tag = "shop" if page.root.tag != "shop" else "catalog"
            elif step == "doctype":
                page = copy_document(page)
                page.dtd_url = DTD_CYCLE[doctypes % len(DTD_CYCLE)]
                doctypes += 1
            elif step == "document":
                page = change_model.mutate(page)
            text = serialize(page)
            content = parse(text) if "document" in step else text
            repository.store_xml(URL, content)

        state = repository.state_dict()
        assert state["documents"] == from_scratch(repository), step
        # Asked twice, the cached entries give the same answer.
        assert repository.state_dict() == state, step
        copy = restored(state)
        assert_same_versions(repository, copy)
        assert copy.state_dict() == state, step
