"""The document flow: what the crawler hands to the monitoring system.

"We can abstractly view this stream as an infinite list of documents
d_1, d_2, ... the list of pages fetched by Xyleme in the order they are
fetched" (Section 2.2).  A stream is any iterable of :class:`Fetch` items;
``repro.webworld.crawler`` produces them from the synthetic web.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

XML_PAGE = "xml"
HTML_PAGE = "html"


@dataclass(frozen=True)
class Fetch:
    """One fetched page: URL, raw content and page kind."""

    url: str
    content: str
    kind: str = XML_PAGE

    @property
    def is_xml(self) -> bool:
        return self.kind == XML_PAGE


def from_pairs(pairs: Iterable, kind: str = XML_PAGE) -> Iterator[Fetch]:
    """Adapt an iterable of (url, content) pairs into a fetch stream."""
    for url, content in pairs:
        yield Fetch(url=url, content=content, kind=kind)

