"""The URL Alerter (Section 6.2).

Detects every atomic condition that reads only document *metadata*: the
three URL pattern families (``extends`` / ``filename`` / exact), warehouse
identifiers (DOCID, DTDID, DTD url, domain), fetch dates (LastAccessed /
LastUpdate) and the document-level change statuses.  "We use several data
structures depending on the nature of the conditions ... essentially hash
tables and extensible arrays."
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set, Tuple

from ..core.events import AtomicEventKey
from ..diff.changes import DOC_NEW, DOC_UNCHANGED, DOC_UPDATED
from .base import Alerter, Detection, reject_unknown
from .context import FetchedDocument
from .url_patterns import PrefixHashTable

_STATUS_KINDS = {
    "doc_new": DOC_NEW,
    "doc_updated": DOC_UPDATED,
    "doc_unchanged": DOC_UNCHANGED,
    "doc_deleted": "deleted",
}
_DATE_KINDS = ("last_accessed", "last_update")

_CMP_FUNCS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class URLAlerter(Alerter):
    kinds: FrozenSet[str] = frozenset(
        {
            "url_extends",
            "url_eq",
            "filename_eq",
            "dtd_eq",
            "dtdid_eq",
            "docid_eq",
            "domain_eq",
            "last_accessed",
            "last_update",
            "doc_new",
            "doc_updated",
            "doc_unchanged",
            "doc_deleted",
        }
    )

    def __init__(self):
        self._prefixes = PrefixHashTable()
        self._exact_urls: Dict[str, Set[int]] = {}
        self._filenames: Dict[str, Set[int]] = {}
        self._dtd_urls: Dict[str, Set[int]] = {}
        self._dtd_ids: Dict[int, Set[int]] = {}
        self._doc_ids: Dict[int, Set[int]] = {}
        self._domains: Dict[str, Set[int]] = {}
        self._statuses: Dict[str, Set[int]] = {}
        #: kind -> list of (comparator, timestamp, code)
        self._dates: Dict[str, List[Tuple[str, float, int]]] = {
            kind: [] for kind in _DATE_KINDS
        }

    # -- registration -----------------------------------------------------------

    def register(self, code: int, key: AtomicEventKey) -> None:
        kind = key.kind
        if kind == "url_extends":
            self._prefixes.add(str(key.argument), code)
        elif kind == "url_eq":
            self._exact_urls.setdefault(str(key.argument), set()).add(code)
        elif kind == "filename_eq":
            self._filenames.setdefault(str(key.argument), set()).add(code)
        elif kind == "dtd_eq":
            self._dtd_urls.setdefault(str(key.argument), set()).add(code)
        elif kind == "dtdid_eq":
            self._dtd_ids.setdefault(int(key.argument), set()).add(code)  # type: ignore[arg-type]
        elif kind == "docid_eq":
            self._doc_ids.setdefault(int(key.argument), set()).add(code)  # type: ignore[arg-type]
        elif kind == "domain_eq":
            self._domains.setdefault(str(key.argument), set()).add(code)
        elif kind in _STATUS_KINDS:
            self._statuses.setdefault(_STATUS_KINDS[kind], set()).add(code)
        elif kind in _DATE_KINDS:
            comparator, timestamp = key.argument  # type: ignore[misc]
            self._dates[kind].append((comparator, float(timestamp), code))
        else:
            reject_unknown(self, key)

    def unregister(self, code: int, key: AtomicEventKey) -> None:
        kind = key.kind
        if kind == "url_extends":
            self._prefixes.remove(str(key.argument), code)
        elif kind == "url_eq":
            _discard(self._exact_urls, str(key.argument), code)
        elif kind == "filename_eq":
            _discard(self._filenames, str(key.argument), code)
        elif kind == "dtd_eq":
            _discard(self._dtd_urls, str(key.argument), code)
        elif kind == "dtdid_eq":
            _discard(self._dtd_ids, int(key.argument), code)  # type: ignore[arg-type]
        elif kind == "docid_eq":
            _discard(self._doc_ids, int(key.argument), code)  # type: ignore[arg-type]
        elif kind == "domain_eq":
            _discard(self._domains, str(key.argument), code)
        elif kind in _STATUS_KINDS:
            _discard(self._statuses, _STATUS_KINDS[kind], code)
        elif kind in _DATE_KINDS:
            entries = self._dates[kind]
            self._dates[kind] = [e for e in entries if e[2] != code]
        else:
            reject_unknown(self, key)

    # -- detection ----------------------------------------------------------------

    def detect(self, fetched: FetchedDocument) -> Detection:
        codes: Set[int] = set()
        meta = fetched.meta

        codes |= self._prefixes.matches(fetched.url)
        entries = self._exact_urls.get(fetched.url)
        if entries:
            codes |= entries
        entries = self._filenames.get(meta.filename)
        if entries:
            codes |= entries
        if meta.dtd_url is not None:
            entries = self._dtd_urls.get(meta.dtd_url)
            if entries:
                codes |= entries
        if meta.dtd_id is not None:
            entries = self._dtd_ids.get(meta.dtd_id)
            if entries:
                codes |= entries
        entries = self._doc_ids.get(meta.doc_id)
        if entries:
            codes |= entries
        if meta.domain is not None:
            entries = self._domains.get(meta.domain)
            if entries:
                codes |= entries
        entries = self._statuses.get(fetched.status)
        if entries:
            codes |= entries
        for kind, value in (
            ("last_accessed", meta.last_accessed),
            ("last_update", meta.last_updated),
        ):
            for comparator, threshold, code in self._dates[kind]:
                if _CMP_FUNCS[comparator](value, threshold):
                    codes.add(code)

        data: Dict[int, Any] = {}
        return codes, data


def _discard(table: Dict, key: Any, code: int) -> None:
    entries = table.get(key)
    if entries is not None:
        entries.discard(code)
        if not entries:
            del table[key]
