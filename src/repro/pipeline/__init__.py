"""End-to-end subscription system assembly."""

from .executor import (
    BatchExecutor,
    DEFAULT_BATCH_SIZE,
    ProcessExecutor,
    SerialExecutor,
)
from .executors import ExecutorSpec, available, create
from .frontend import AsyncFetchFrontend
from .ingest import BoundedFetchQueue, IngestReport, IngestSession
from .stages import FeedResult, PipelineTask
from .stream import Fetch, chunked, from_pairs, HTML_PAGE, XML_PAGE
from .system import SubscriptionSystem

__all__ = [
    "AsyncFetchFrontend",
    "BatchExecutor",
    "BoundedFetchQueue",
    "DEFAULT_BATCH_SIZE",
    "ExecutorSpec",
    "Fetch",
    "FeedResult",
    "HTML_PAGE",
    "IngestReport",
    "IngestSession",
    "PipelineTask",
    "ProcessExecutor",
    "SerialExecutor",
    "SubscriptionSystem",
    "XML_PAGE",
    "available",
    "chunked",
    "create",
    "from_pairs",
]
