"""The XML warehouse — the reproduction's Natix substitute.

Stores the *current* version of each XML document plus a bounded chain of
inverted deltas, so any retained older version can be reconstructed
("the new version of a document can be constructed based on an old version
and the delta" — we store it the other way around, newest-full, which is
what a monitoring system reads most).  HTML pages are not warehoused: only
their signature is kept, enough to answer changed/unchanged (Section 1).

``store_xml`` returns a :class:`FetchOutcome` carrying everything the
alerter chain needs: status (new/updated/unchanged), the delta, both
versions, and the new-version elements the delta touches (beside the
delta rather than in it, so the version history pins no new-version
nodes).

Each version is signed once, against the previous version, while it is
parsed.  A fetched page is first hashed as raw text; when the hash equals
that of the text last stored for the URL, the page is unchanged and is
neither parsed nor signed.  Otherwise it is parsed together with the
stored document's :class:`~repro.diff.signature.SignatureMemo` (a new
URL's page with a fresh one), which holds the content key and signature of
every subtree of the stored version, and that version's records (the
exact text of each child of the root that has children): every record
the page repeats byte for byte is spliced out before expat reads it, only
subtrees the memo does not hold are hashed and built, each other one is
left as a signature placeholder, and the memo then holds the new
version's keys and records.  Each subtree signature stays on its node
(``Node.signature``), where ``compute_delta`` reads it now and again when
the next version arrives.

The memo must hold the keys and records of the stored version, since a
placeholder is resolved from that version's subtrees.  So every path
keeps the two together: a new URL and a restore (its parse, with a fresh
memo) fill the memo from the tree they store, and a ``Document`` input
(signed with ``sign_subtree``, which clears the records) too; a page
rejected by the parser leaves it unchanged; a page whose tree equals the
stored one leaves the keys it had, with the records of the new text,
which are children of the same tree (the stored ``text`` stays the older
one, so the records are kept as copies of their text, not as offsets);
and an XML fetch of a URL stored as HTML signs into a fresh memo before
it is refused.  No placeholder leaves the repository: an unchanged tree
is dropped, ``compute_delta`` resolves every placeholder of an update,
and a lineage restart parses the page again, whole, with a fresh memo.
The memo is not checkpointed.

An updated version takes over the stored version's unchanged subtrees
(``compute_delta``): only its changed nodes and their ancestors are new
objects, and the parse built no others.  So once a newer version of a
URL is stored, the older one, a
:attr:`FetchOutcome.old_document` or an earlier outcome's ``document``,
may only be read top-down from its root (walked, copied, serialized):
the ``parent`` of a node it shares with the newer version points into
that version.  No older version is ever diffed again.

Each text node is tokenised once.  Its distinct words stay on the node
(``TextNode.words``), which the next version takes over with the rest of
an unchanged subtree, and the XML alerter reads them there.  The word
index is maintained from the deltas: an updated version is indexed by
handing ``WarehouseIndexes.index_document`` the delta, so only inserted,
deleted and updated nodes are counted, while a new document, a lineage
restart or a restore indexes the whole tree.  A stored tree carries both caches and is
therefore never mutated: readers get ``copy_document`` copies
(:meth:`Repository.document`, :meth:`Repository.version`), which start
with both caches empty.

The DOCTYPE is not part of the signed tree.  Every fetch records the
fetched version's DOCTYPE on the stored document, its metadata
(``dtd_url``, ``dtd_id``) and the DTD index, even when the tree is
unchanged and the status says so.

:meth:`Repository.state_dict` / :meth:`Repository.restore_state` carry
the current versions with their XIDs, the metadata, the doc-id counter
and the DTD id table; warehouse snapshots (:mod:`.persistence`) and
crash-recovery checkpoints both use them.  A version is carried as the
text it was parsed from (serialized only when it came from no text), and
each document keeps its encoded entry until it stores a new version, so a
checkpoint re-encodes only the documents that changed since the last one.
A restore rejects a version whose XIDs repeat or are not below its
``next_xid``: the diff trusts XIDs to be unique and checks them nowhere
else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..clock import Clock, SimulatedClock
from ..diff import (
    DOC_NEW,
    DOC_UNCHANGED,
    DOC_UPDATED,
    Delta,
    SignatureMemo,
    XidSpace,
    apply_delta,
    compute_delta,
    copy_document,
    document_signature,
    page_signature,
    sign_subtree,
)
from ..errors import DiffError, DocumentNotFound, RepositoryError
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import (
    COUNTER_REPOSITORY_OUTCOMES,
    STAGE_REPOSITORY_STORE_HTML,
    STAGE_REPOSITORY_STORE_XML,
)
from ..observability.tracing import stage_histogram
from ..xmlstore.nodes import Document, ElementNode
from ..xmlstore.parser import parse
from ..xmlstore.serializer import serialize
from .index import WarehouseIndexes
from .metadata import HTML, XML, DocumentMeta
from .semantics import SemanticClassifier


@dataclass
class FetchOutcome:
    """Everything known after one document passed through the loader."""

    meta: DocumentMeta
    status: str  # DOC_NEW / DOC_UPDATED / DOC_UNCHANGED
    #: The new current version (XML only).  Read it top-down only once
    #: a newer version of the URL is stored, as ``old_document`` now.
    document: Optional[Document] = None
    #: The previous version (XML, updated); its unchanged subtrees now
    #: belong to ``document``.
    old_document: Optional[Document] = None
    delta: Optional[Delta] = None            # old -> new (XML, updated)
    #: New-version elements ``delta``'s operations touch (``compute_delta``).
    touched: Optional[List[ElementNode]] = None

    @property
    def is_new(self) -> bool:
        return self.status == DOC_NEW

    @property
    def changed(self) -> bool:
        return self.status in (DOC_NEW, DOC_UPDATED)


@dataclass
class _StoredDocument:
    meta: DocumentMeta
    current: Optional[Document]  # None for HTML
    xid_space: Optional[XidSpace]
    #: (version number of the *older* version, delta new->old) pairs, newest
    #: first; applying them successively to ``current`` walks back in time.
    history: List[Tuple[int, Delta]] = field(default_factory=list)
    #: ``page_signature`` of the raw text last stored (XML only).  None
    #: after a ``Document`` input or a restore, so the next fetch parses.
    raw_signature: Optional[int] = None
    #: The text ``current`` was parsed from; None when it was not (a
    #: ``Document`` input, or a DOCTYPE rewritten in place).
    text: Optional[str] = None
    #: ``current`` encoded for :meth:`state_dict` (``xml``, ``xids``,
    #: ``next_xid``), kept until :meth:`set_current` stores a new version.
    _entry: Optional[Dict] = field(default=None, repr=False)
    #: Content key -> signature of every subtree of ``current``, and its
    #: records; the next version is parsed and signed against it.  Not
    #: checkpointed: a restore rebuilds it while parsing.
    memo: SignatureMemo = field(default_factory=SignatureMemo, repr=False)

    def set_current(self, document: Document, text: Optional[str]) -> None:
        """Make ``document`` (parsed from ``text``, if given) the current
        version; drops the cached checkpoint entry."""
        self.current = document
        self.text = text
        self._entry = None

    def state_dict(self) -> Dict:
        """The metadata and, for XML, the current version with its XIDs
        (the history chain is not kept).

        The version is written as the text it was parsed from, so
        restoring parses it back to the same tree and XIDs; only a
        version that did not come from text is serialized.  Metadata
        moves on every fetch and is encoded afresh each time.
        """
        meta = dict(vars(self.meta))
        del meta["filename"]  # derived from the URL
        state: Dict = {"meta": meta}
        if self.current is not None:
            if self._entry is None:
                assert self.xid_space is not None
                self._entry = {
                    "xml": self.text or serialize(self.current),
                    "xids": [node.xid for node in self.current.preorder()],
                    "next_xid": self.xid_space.next_xid,
                }
            state.update(self._entry)
        return state

    @classmethod
    def from_state_dict(cls, state: Dict) -> "_StoredDocument":
        meta = DocumentMeta(**state["meta"])
        if "xml" not in state:
            return cls(meta=meta, current=None, xid_space=None)
        memo = SignatureMemo()
        document = parse(state["xml"], memo)
        nodes = list(document.preorder())
        xids, next_xid = state["xids"], state["next_xid"]
        if len(nodes) != len(xids):
            raise RepositoryError(
                f"saved state of {meta.url} is corrupt: XID list does not"
                " match the node count"
            )
        if len(set(xids)) != len(xids) or not all(
            type(xid) is int and 0 < xid < next_xid for xid in xids
        ):
            raise RepositoryError(
                f"saved state of {meta.url} is corrupt: XIDs repeat or are"
                f" not below next_xid {next_xid}"
            )
        for node, xid in zip(nodes, xids):
            node.xid = xid
        stored = cls(
            meta=meta,
            current=None,
            xid_space=XidSpace(first_xid=next_xid),
            memo=memo,
        )
        stored.set_current(document, state["xml"])
        return stored


class Repository:
    """In-memory versioned warehouse with indexes and classification."""

    def __init__(
        self,
        classifier: Optional[SemanticClassifier] = None,
        clock: Optional[Clock] = None,
        keep_versions: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.classifier = (
            classifier if classifier is not None else SemanticClassifier()
        )
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._xml_latency = stage_histogram(
            self.metrics, STAGE_REPOSITORY_STORE_XML
        )
        self._html_latency = stage_histogram(
            self.metrics, STAGE_REPOSITORY_STORE_HTML
        )
        self.indexes = WarehouseIndexes()
        self.keep_versions = max(1, keep_versions)
        self._by_url: Dict[str, int] = {}
        self._docs: Dict[int, _StoredDocument] = {}
        self._next_doc_id = 1

    # -- storing -----------------------------------------------------------

    def store_xml(
        self, url: str, content: Union[str, Document]
    ) -> FetchOutcome:
        """Load one fetched XML page; returns the change outcome.

        Instrumentation: a successful store observes one latency sample on
        ``repository.store_xml.latency_seconds`` and bumps
        ``repository.outcomes{kind=xml,status=...}``; a rejected page (the
        parser raised) records nothing here — the pipeline accounts for
        rejects with their reason.
        """
        start = self.metrics.now()
        outcome = self._store_xml(url, content)
        self._xml_latency.observe(self.metrics.now() - start)
        self.metrics.counter(
            COUNTER_REPOSITORY_OUTCOMES, kind=XML, status=outcome.status
        ).inc()
        return outcome

    def _store_xml(
        self, url: str, content: Union[str, Document]
    ) -> FetchOutcome:
        now = self.clock.now()
        doc_id = self._by_url.get(url)
        stored = None if doc_id is None else self._docs[doc_id]
        # The stored XML version's memo; a new URL, or one stored as
        # HTML, signs into a fresh one.
        if stored is not None and stored.current is not None:
            memo = stored.memo
        else:
            memo = SignatureMemo()
        raw_signature = None
        if isinstance(content, str):
            raw_signature = page_signature(content)
            if stored is not None and raw_signature == stored.raw_signature:
                return self._unchanged(stored, now)
            document, text = parse(content, memo), content
        else:
            document, text = content, None
            sign_subtree(document.root, memo)
        if stored is None:
            outcome = self._store_new_xml(url, document, text, now, memo)
            stored = self._docs[outcome.meta.doc_id]
        else:
            outcome = self._store_version(stored, document, text, now)
        stored.raw_signature = raw_signature
        return outcome

    def _store_version(
        self,
        stored: _StoredDocument,
        document: Document,
        text: Optional[str],
        now: float,
    ) -> FetchOutcome:
        if stored.meta.kind != XML:
            raise RepositoryError(
                f"{stored.meta.url} was previously stored as {stored.meta.kind}"
            )
        assert stored.current is not None and stored.xid_space is not None
        stored.meta.last_accessed = now
        new_signature = document_signature(document)
        if new_signature == stored.meta.signature:
            return self._same_tree(stored, document, now)
        touched: List[ElementNode] = []
        try:
            delta = compute_delta(
                stored.current, document, stored.xid_space, touched
            )
        except DiffError:
            # Root element changed: restart the lineage (same doc id).
            return self._restart_lineage(
                stored, document, text, now, new_signature
            )
        if not delta:
            # The tree is unchanged but the stored signature is not its
            # own (an HTML fetch of the URL replaced it).  The fetched
            # root took over every subtree of the stored one: keep it.
            stored.meta.signature = new_signature
            stored.current.root = document.root
            return self._same_tree(stored, document, now)
        old_document = stored.current
        stored.history.insert(0, (stored.meta.version, delta.inverted()))
        del stored.history[self.keep_versions - 1 :]
        stored.set_current(document, text)
        stored.meta.version += 1
        stored.meta.last_updated = now
        stored.meta.signature = new_signature
        self._record_dtd(stored.meta, document)
        self._reindex(stored, delta)
        return FetchOutcome(
            meta=stored.meta,
            status=DOC_UPDATED,
            document=document,
            old_document=old_document,
            delta=delta,
            touched=touched,
        )

    def _same_tree(
        self, stored: _StoredDocument, document: Document, now: float
    ) -> FetchOutcome:
        """``document`` has the stored tree; only its DOCTYPE may differ,
        which is recorded without a new version."""
        current = stored.current
        assert current is not None
        if (current.doctype_name, current.dtd_url) != (
            document.doctype_name,
            document.dtd_url,
        ):
            current.doctype_name = document.doctype_name
            current.dtd_url = document.dtd_url
            # No stored text parses to the rewritten version any more.
            stored.set_current(current, None)
            self._record_dtd(stored.meta, current)
            self._reindex(stored, Delta())
        return self._unchanged(stored, now)

    @staticmethod
    def _unchanged(stored: _StoredDocument, now: float) -> FetchOutcome:
        stored.meta.last_accessed = now
        return FetchOutcome(
            meta=stored.meta, status=DOC_UNCHANGED, document=stored.current
        )

    def _store_new_xml(
        self,
        url: str,
        document: Document,
        text: Optional[str],
        now: float,
        memo: SignatureMemo,
    ) -> FetchOutcome:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        xid_space = XidSpace()
        xid_space.assign_fresh(document.root)
        meta = DocumentMeta(
            doc_id=doc_id,
            url=url,
            kind=XML,
            last_accessed=now,
            last_updated=now,
            signature=document_signature(document),
            version=1,
        )
        self._record_dtd(meta, document)
        meta.domain = self.classifier.classify(document)
        stored = _StoredDocument(
            meta=meta, current=None, xid_space=xid_space, memo=memo
        )
        stored.set_current(document, text)
        self._by_url[url] = doc_id
        self._docs[doc_id] = stored
        self._reindex(stored)
        return FetchOutcome(meta=meta, status=DOC_NEW, document=document)

    def _restart_lineage(
        self,
        stored: _StoredDocument,
        document: Document,
        text: Optional[str],
        now: float,
        signature: int,
    ) -> FetchOutcome:
        old_document = stored.current
        if text is not None:
            # The signing parse left placeholders for the old version's
            # subtrees: parse the page again, whole, for the new lineage.
            stored.memo = SignatureMemo()
            document = parse(text, stored.memo)
        xid_space = XidSpace()
        xid_space.assign_fresh(document.root)
        stored.xid_space = xid_space
        stored.set_current(document, text)
        stored.history.clear()
        stored.meta.version += 1
        stored.meta.last_updated = now
        stored.meta.signature = signature
        self._record_dtd(stored.meta, document)
        stored.meta.domain = self.classifier.classify(document)
        self._reindex(stored)
        # No delta is available across a lineage restart; report the update
        # with both versions so document-level monitoring still fires.
        return FetchOutcome(
            meta=stored.meta,
            status=DOC_UPDATED,
            document=document,
            old_document=old_document,
            delta=None,
        )

    def store_html(self, url: str, content: str) -> FetchOutcome:
        """Track a non-warehoused HTML page: signature only."""
        start = self.metrics.now()
        outcome = self._store_html(url, content)
        self._html_latency.observe(self.metrics.now() - start)
        self.metrics.counter(
            COUNTER_REPOSITORY_OUTCOMES, kind=HTML, status=outcome.status
        ).inc()
        return outcome

    def _store_html(self, url: str, content: str) -> FetchOutcome:
        now = self.clock.now()
        signature = page_signature(content)
        doc_id = self._by_url.get(url)
        if doc_id is None:
            new_id = self._next_doc_id
            self._next_doc_id += 1
            meta = DocumentMeta(
                doc_id=new_id,
                url=url,
                kind=HTML,
                last_accessed=now,
                last_updated=now,
                signature=signature,
                version=1,
            )
            self._by_url[url] = new_id
            self._docs[new_id] = _StoredDocument(
                meta=meta, current=None, xid_space=None
            )
            return FetchOutcome(meta=meta, status=DOC_NEW)
        stored = self._docs[doc_id]
        stored.meta.last_accessed = now
        # The signature below replaces any XML one: the next XML fetch parses.
        stored.raw_signature = None
        if stored.meta.signature == signature:
            return FetchOutcome(meta=stored.meta, status=DOC_UNCHANGED)
        stored.meta.signature = signature
        stored.meta.version += 1
        stored.meta.last_updated = now
        return FetchOutcome(meta=stored.meta, status=DOC_UPDATED)

    def _record_dtd(self, meta: DocumentMeta, document: Document) -> None:
        """Point ``meta``'s DTD fields at ``document``'s DOCTYPE."""
        meta.dtd_url = document.dtd_url
        meta.dtd_id = (
            None
            if document.dtd_url is None
            else self.classifier.dtd_registry.register(document.dtd_url)
        )

    def _reindex(
        self, stored: _StoredDocument, delta: Optional[Delta] = None
    ) -> None:
        """Index ``stored.current``: from ``delta`` (the diff from the
        version indexed so far) when given, else the whole tree."""
        assert stored.current is not None
        self.indexes.index_document(
            stored.meta.doc_id,
            stored.current,
            domain=stored.meta.domain,
            delta=delta,
        )

    # -- reading ------------------------------------------------------------

    def meta_for_url(self, url: str) -> DocumentMeta:
        doc_id = self._by_url.get(url)
        if doc_id is None:
            raise DocumentNotFound(url)
        return self._docs[doc_id].meta

    def meta(self, doc_id: int) -> DocumentMeta:
        stored = self._docs.get(doc_id)
        if stored is None:
            raise DocumentNotFound(f"doc_id {doc_id}")
        return stored.meta

    def has_url(self, url: str) -> bool:
        return url in self._by_url

    def document(self, doc_id: int) -> Document:
        """Current version of an XML document (a defensive copy)."""
        stored = self._docs.get(doc_id)
        if stored is None:
            raise DocumentNotFound(f"doc_id {doc_id}")
        if stored.current is None:
            raise RepositoryError(
                f"{stored.meta.url} is an HTML page and is not warehoused"
            )
        return copy_document(stored.current)

    def document_for_url(self, url: str) -> Document:
        doc_id = self._by_url.get(url)
        if doc_id is None:
            raise DocumentNotFound(url)
        return self.document(doc_id)

    def version(self, doc_id: int, version: int) -> Document:
        """Reconstruct a retained older version by replaying inverted deltas."""
        stored = self._docs.get(doc_id)
        if stored is None:
            raise DocumentNotFound(f"doc_id {doc_id}")
        if stored.current is None:
            raise RepositoryError("HTML pages keep no versions")
        if version == stored.meta.version:
            return copy_document(stored.current)
        current = stored.current
        for older_version, inverted in stored.history:
            current = apply_delta(current, inverted)
            if older_version == version:
                return current
        raise RepositoryError(
            f"version {version} of doc {doc_id} is no longer retained"
        )

    def retained_versions(self, doc_id: int) -> List[int]:
        stored = self._docs.get(doc_id)
        if stored is None:
            raise DocumentNotFound(f"doc_id {doc_id}")
        versions = [stored.meta.version]
        versions.extend(older for older, _ in stored.history)
        return versions

    def remove(self, url: str) -> None:
        doc_id = self._by_url.pop(url, None)
        if doc_id is None:
            raise DocumentNotFound(url)
        self.indexes.unindex_document(doc_id)
        del self._docs[doc_id]

    # -- enumeration -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def all_meta(self) -> Iterable[DocumentMeta]:
        return [stored.meta for stored in self._docs.values()]

    def xml_doc_ids(self) -> List[int]:
        return [
            doc_id
            for doc_id, stored in self._docs.items()
            if stored.current is not None
        ]

    def add_importance(self, url: str, amount: float) -> None:
        """Subscriptions mentioning a page add importance (Section 2.2)."""
        doc_id = self._by_url.get(url)
        if doc_id is not None:
            self._docs[doc_id].meta.importance += amount

    # -- checkpoint state ------------------------------------------------------

    def state_dict(self) -> Dict:
        """JSON-serializable state: every document's metadata and current
        version with its XIDs, the doc-id counter and the DTD id table.

        Retained older versions are not kept: after a restart the
        monitoring path needs only the latest version to diff against.
        """
        return {
            "documents": [
                stored.state_dict() for stored in self._docs.values()
            ],
            "next_doc_id": self._next_doc_id,
            "dtds": self.classifier.dtd_registry.state_dict(),
        }

    def restore_state(self, state: Dict) -> None:
        """Load a :meth:`state_dict` into this empty repository and
        index every restored version."""
        if self._docs:
            raise RepositoryError("restore_state needs an empty repository")
        self.classifier.dtd_registry.restore_state(state["dtds"])
        for entry in state["documents"]:
            stored = _StoredDocument.from_state_dict(entry)
            self._by_url[stored.meta.url] = stored.meta.doc_id
            self._docs[stored.meta.doc_id] = stored
            if stored.current is not None:
                self._reindex(stored)
        self._next_doc_id = int(state["next_doc_id"])
