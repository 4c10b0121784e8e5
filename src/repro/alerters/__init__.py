"""Alerters (Section 6): atomic-event detection on the document flow.

* :class:`URLAlerter` — metadata conditions (URL patterns, ids, dates,
  statuses), with both prefix structures of Section 6.2.
* :class:`XMLAlerter` — the postorder WordTable/TagTable algorithm for
  ``contains`` / ``strict contains`` plus element-level change events.
* :class:`HTMLAlerter` — keyword containment on raw pages (the extension
  the paper left unimplemented).
* :class:`AlerterChain` — collection, ordering, weak/strong gating.
"""

from .base import Alerter
from .chain import AlerterChain
from .context import FetchedDocument
from .html_alerter import HTMLAlerter, strip_markup
from .url_alerter import URLAlerter
from .url_patterns import PrefixHashTable, PrefixTrie
from .xml_alerter import XMLAlerter

__all__ = [
    "Alerter",
    "AlerterChain",
    "FetchedDocument",
    "HTMLAlerter",
    "strip_markup",
    "URLAlerter",
    "PrefixHashTable",
    "PrefixTrie",
    "XMLAlerter",
]
