"""End-to-end subscription system assembly."""

from .frontend import AsyncFetchFrontend
from .ingest import BoundedFetchQueue, IngestReport, IngestSession
from .stages import DEFAULT_BATCH_SIZE, FeedResult, PipelineTask
from .stream import Fetch, from_pairs, HTML_PAGE, XML_PAGE
from .system import SubscriptionSystem

__all__ = [
    "AsyncFetchFrontend",
    "BoundedFetchQueue",
    "DEFAULT_BATCH_SIZE",
    "Fetch",
    "FeedResult",
    "HTML_PAGE",
    "IngestReport",
    "IngestSession",
    "PipelineTask",
    "SubscriptionSystem",
    "XML_PAGE",
    "from_pairs",
]
