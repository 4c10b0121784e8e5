"""AST of the subscription language (Section 5 of the paper).

A subscription has four parts (Figure 2)::

    subscription name
    monitoring ...      % zero or more monitoring queries
    continuous ...      % zero or more continuous queries
    report when ...     % at most one report specification
    refresh ...         % zero or more refresh statements
    virtual ...         % extension: register to another user's queries

Atomic conditions carry a ``kind`` constant plus parameters; weak/strong
classification (Section 5.1) lives on the condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# -- atomic condition kinds ---------------------------------------------------

URL_EXTENDS = "url_extends"
URL_EQ = "url_eq"
FILENAME_EQ = "filename_eq"
DTD_EQ = "dtd_eq"
DTDID_EQ = "dtdid_eq"
DOCID_EQ = "docid_eq"
DOMAIN_EQ = "domain_eq"
LAST_ACCESSED = "last_accessed"
LAST_UPDATE = "last_update"
SELF_CONTAINS = "self_contains"
DOC_STATUS = "doc_status"         # new / updated / unchanged / deleted self
ELEMENT = "element"               # (changekind) tag ((strict) contains word)

#: Change kinds of document-status and element conditions.
KIND_NEW = "new"
KIND_UPDATED = "updated"
KIND_UNCHANGED = "unchanged"
KIND_DELETED = "deleted"
CHANGE_KINDS = (KIND_NEW, KIND_UPDATED, KIND_UNCHANGED, KIND_DELETED)

#: Weak document statuses (Section 5.1): raised by almost every fetch.
WEAK_STATUSES = frozenset({KIND_NEW, KIND_UPDATED, KIND_UNCHANGED})


@dataclass(frozen=True)
class AtomicCondition:
    """One atomic condition of a ``where`` clause.

    Field usage by ``kind``:

    ================  =============================================
    kind              fields used
    ================  =============================================
    URL_EXTENDS       ``string`` (the URL prefix)
    URL_EQ et al.     ``string`` (or ``number`` for DTDID/DOCID)
    LAST_*            ``comparator`` + ``number`` (timestamp)
    SELF_CONTAINS     ``string`` (the word)
    DOC_STATUS        ``change_kind``
    ELEMENT           ``target`` (tag or variable), ``change_kind``
                      (may be None), ``string`` (word, may be None),
                      ``strict``
    ================  =============================================
    """

    kind: str
    string: Optional[str] = None
    number: Optional[float] = None
    comparator: Optional[str] = None
    change_kind: Optional[str] = None
    target: Optional[str] = None
    strict: bool = False

    @property
    def weak(self) -> bool:
        """Weak conditions alone cannot form a where clause (Section 5.1)."""
        return self.kind == DOC_STATUS and self.change_kind in WEAK_STATUSES


@dataclass(frozen=True)
class FromBinding:
    """``from self//Member X`` — binds ``X`` to matches of the path."""

    path: str
    variable: str


@dataclass(frozen=True)
class SelectSpec:
    """``select`` clause of a monitoring query.

    Either an XML ``template`` (``select <UpdatedPage url=URL/>``, where
    attribute values naming a variable — or ``URL`` — are substituted), or a
    list of ``items`` (variables / variable-rooted paths).  An empty spec
    reproduces the paper's implemented behaviour: "notifications simply
    return the URL of the document ... and basic informations".
    """

    template: Optional[str] = None
    items: Tuple[str, ...] = ()


@dataclass(frozen=True)
class MonitoringQuery:
    """One monitoring query.

    ``conditions`` is the primary conjunction; ``extra_disjuncts`` holds
    further conjunctions when the where clause uses ``or`` — the extension
    the paper's conclusion anticipates ("complex events that would include
    disjunctions of atomic conditions").  Each disjunct compiles to its own
    complex event; all of them notify through the same query.
    """

    name: Optional[str]
    select: SelectSpec
    from_bindings: Tuple[FromBinding, ...]
    conditions: Tuple[AtomicCondition, ...]
    extra_disjuncts: Tuple[Tuple[AtomicCondition, ...], ...] = ()

    def all_disjuncts(self) -> Tuple[Tuple[AtomicCondition, ...], ...]:
        return (self.conditions,) + self.extra_disjuncts


@dataclass(frozen=True)
class NotificationTrigger:
    """``when Sub.Query`` — run a continuous query on a notification."""

    subscription: str
    query: str


@dataclass(frozen=True)
class ContinuousQuery:
    name: str
    query_text: str
    delta: bool = False
    #: Either a frequency word or a NotificationTrigger (exactly one set).
    frequency: Optional[str] = None
    trigger: Optional[NotificationTrigger] = None


# -- report conditions (Section 5.3) ---------------------------------------------

@dataclass(frozen=True)
class CountCondition:
    """``count >= n`` or ``count(MonitoringQueryName) >= n``."""

    threshold: int
    query_name: Optional[str] = None
    comparator: str = ">="


@dataclass(frozen=True)
class PeriodicCondition:
    frequency: str


@dataclass(frozen=True)
class ImmediateCondition:
    pass


ReportConditionTerm = object  # union of the three classes above


@dataclass(frozen=True)
class ReportCondition:
    """Disjunction of terms: "a report is generated whenever one of the
    reporting conditions holds"."""

    terms: Tuple[object, ...]


@dataclass(frozen=True)
class ReportSpec:
    when: ReportCondition
    query_text: Optional[str] = None
    atmost_count: Optional[int] = None
    atmost_frequency: Optional[str] = None
    archive_frequency: Optional[str] = None


@dataclass(frozen=True)
class RefreshStatement:
    url: str
    frequency: str


@dataclass(frozen=True)
class VirtualReference:
    """``virtual MyXyleme.Member`` — subscribe to another subscription's
    query without creating new monitoring work (Section 5.4)."""

    subscription: str
    query: Optional[str] = None


@dataclass(frozen=True)
class Subscription:
    name: str
    monitoring: Tuple[MonitoringQuery, ...] = ()
    continuous: Tuple[ContinuousQuery, ...] = ()
    report: Optional[ReportSpec] = None
    refreshes: Tuple[RefreshStatement, ...] = ()
    virtuals: Tuple[VirtualReference, ...] = ()

    def monitoring_by_name(self, name: str) -> Optional[MonitoringQuery]:
        for query in self.monitoring:
            if query.name == name:
                return query
        return None
