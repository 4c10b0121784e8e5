"""End-to-end subscription system assembly."""

from .stages import DEFAULT_BATCH_SIZE, FeedResult
from .stream import Fetch, from_pairs, HTML_PAGE, XML_PAGE
from .system import SubscriptionSystem

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Fetch",
    "FeedResult",
    "HTML_PAGE",
    "SubscriptionSystem",
    "XML_PAGE",
    "from_pairs",
]
