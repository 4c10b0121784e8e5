"""Exception hierarchy shared by every subsystem of the reproduction.

Each subpackage raises subclasses of :class:`ReproError` so that callers can
catch either a precise error (for example :class:`SubscriptionError`) or any
library failure with a single ``except ReproError`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class XMLError(ReproError):
    """Base class for errors of the XML substrate (``repro.xmlstore``)."""


class XMLSyntaxError(XMLError):
    """Raised when the expat tree builder rejects its input.

    Carries ``line`` and ``column`` attributes (1-based) pointing at the
    offending position when they are known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class PathSyntaxError(XMLError):
    """Raised for a malformed path expression (``repro.xmlstore.paths``)."""


class DiffError(ReproError):
    """Base class for errors of the diff/versioning subsystem."""


class DeltaApplyError(DiffError):
    """Raised when a delta cannot be applied to a document version."""


class MiniSQLError(ReproError):
    """Base class for errors of the embedded relational store."""


class SchemaError(MiniSQLError):
    """Raised for invalid table definitions or rows violating a schema."""


class QueryError(ReproError):
    """Raised for malformed or unevaluable XML queries (``repro.query``)."""


class RepositoryError(ReproError):
    """Raised by the document repository (``repro.repository``)."""


class DocumentNotFound(RepositoryError):
    """Raised when a document id or URL is absent from the repository."""


class MonitoringError(ReproError):
    """Base class for Monitoring Query Processor errors (``repro.core``)."""


class UnknownEventError(MonitoringError):
    """Raised when an alert references an atomic event never registered."""


class SubscriptionError(ReproError):
    """Base class for subscription-language and manager errors."""


class SubscriptionSyntaxError(SubscriptionError):
    """Raised when the subscription parser rejects its input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class WeakConditionError(SubscriptionError):
    """Raised for a ``where`` clause made only of weak atomic conditions.

    Section 5.1 of the paper disallows subscriptions whose condition is a
    single weak event (``new`` / ``updated`` / ``unchanged`` on ``self``)
    because every fetched document would raise an alert.
    """


class ResourceLimitError(SubscriptionError):
    """Raised when a subscription is rejected by the cost controller.

    Section 5.4 of the paper discusses blocking subscriptions that would
    require too many resources (for example ``contains "the"``).
    """


class ReportingError(ReproError):
    """Raised by the Reporter (``repro.reporting``)."""


class TriggerError(ReproError):
    """Raised by the Trigger Engine (``repro.triggers``)."""


class PipelineError(ReproError):
    """Raised by the staged ingestion pipeline for configuration mistakes
    (non-positive batch size or queue bound, bad fault plans) and
    for violated crawler invariants (a page table entry with no content)."""


class RecoveryError(ReproError):
    """Raised by the crash-recovery subsystem (``repro.recovery``) for
    unusable journals, checkpoint/runtime mismatches and resume misuse."""


class FetchError(ReproError):
    """Base class for failed page fetches (``repro.faults``).

    Crawling "millions of pages per day" (Section 2.2) makes timeouts,
    resets, server errors and corrupt payloads routine; the fault
    taxonomy classifies them so resilience policies can react per class.

    ``transient`` marks failures a retry may cure (the retry policy
    reschedules them at the backoff interval); permanent failures go
    straight to the dead-letter queue.  ``kind`` is the canonical label
    used by the ``faults.injected{kind=...}`` metric.
    """

    transient = True
    kind = "fetch"

    def __init__(self, message: str, url: str = ""):
        super().__init__(message)
        self.url = url


class FetchTimeout(FetchError):
    """The fetch exceeded its deadline; the page may well be fine."""

    kind = "timeout"


class FetchConnectionReset(FetchError):
    """The connection dropped mid-exchange (peer reset, broken pipe)."""

    kind = "reset"


class FetchServerError(FetchError):
    """The server answered with a 5xx status.

    Carries the ``status`` code; 5xx responses are overload or deploy
    blips far more often than permanent death, so they are transient.
    """

    kind = "http_5xx"

    def __init__(self, message: str, url: str = "", status: int = 503):
        super().__init__(message, url=url)
        self.status = status


class TruncatedFetch(FetchError):
    """The payload stopped short of its declared length (connection died
    mid-body); ``payload`` holds the partial content when known."""

    kind = "truncated"

    def __init__(self, message: str, url: str = "", payload: str = ""):
        super().__init__(message, url=url)
        self.payload = payload


class GarbageFetch(FetchError):
    """The payload arrived complete but corrupt (undecodable bytes).

    Refetching a server that serves garbage returns the same garbage, so
    this class is *not* transient: it is quarantined, not retried.
    """

    transient = False
    kind = "garbage"

    def __init__(self, message: str, url: str = "", payload: str = ""):
        super().__init__(message, url=url)
        self.payload = payload
