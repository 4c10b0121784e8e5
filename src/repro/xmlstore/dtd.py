"""DTD registry.

Xyleme classifies documents by DTD: the subscription language has both
``DTD = string`` (the DTD URL) and ``DTDID = integer`` (the warehouse's
internal identifier) conditions, and the semantic module clusters DTDs into
domains.  This registry is the single source of DTD ids and the DTD->domain
assignment used by ``repro.repository.semantics``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..ids import SequentialIdAllocator


class DTDRegistry:
    """Interns DTD URLs to dense integer ids and tracks their domains."""

    def __init__(self):
        self._id_of: Dict[str, int] = {}
        self._url_of: Dict[int, str] = {}
        self._domain_of: Dict[int, Optional[str]] = {}
        self._allocator = SequentialIdAllocator(start=1)

    def __len__(self) -> int:
        return len(self._id_of)

    def __contains__(self, url: str) -> bool:
        return url in self._id_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_of)

    def register(self, url: str, domain: Optional[str] = None) -> int:
        """Return the id for ``url``, creating it on first sight.

        When ``domain`` is given it (re)assigns the DTD to that semantic
        domain; registration without a domain never clears an assignment.
        """
        dtd_id = self._id_of.get(url)
        if dtd_id is None:
            dtd_id = self._allocator.allocate()
            self._id_of[url] = dtd_id
            self._url_of[dtd_id] = url
            self._domain_of[dtd_id] = None
        if domain is not None:
            self._domain_of[dtd_id] = domain
        return dtd_id

    def id_for(self, url: str) -> Optional[int]:
        return self._id_of.get(url)

    def url_for(self, dtd_id: int) -> Optional[str]:
        return self._url_of.get(dtd_id)

    def domain_for(self, url: str) -> Optional[str]:
        dtd_id = self._id_of.get(url)
        if dtd_id is None:
            return None
        return self._domain_of.get(dtd_id)

    def dtds_in_domain(self, domain: str) -> Iterator[str]:
        for dtd_id, assigned in self._domain_of.items():
            if assigned == domain:
                yield self._url_of[dtd_id]

    def state_dict(self) -> Dict:
        """JSON-serializable state: each DTD's url, id and domain."""
        return {
            "dtds": [
                [url, dtd_id, self._domain_of[dtd_id]]
                for url, dtd_id in self._id_of.items()
            ]
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt a saved id table.

        Domain pins already made here (``assign_dtd`` on a fresh
        classifier) win over the saved ones, and a DTD known here but not
        in ``state`` gets a fresh id past every saved one.
        """
        local = {url: self.domain_for(url) for url in self._id_of}
        self._id_of, self._url_of, self._domain_of = {}, {}, {}
        for url, dtd_id, domain in state["dtds"]:
            self._id_of[url] = dtd_id
            self._url_of[dtd_id] = url
            self._domain_of[dtd_id] = domain
        self._allocator = SequentialIdAllocator(
            start=max(self._url_of, default=0) + 1
        )
        for url, domain in local.items():
            self.register(url, domain=domain)
