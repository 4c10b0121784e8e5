"""Recursive-descent parser for the subscription language.

Produces :class:`~repro.language.ast.Subscription` values.  Embedded
warehouse queries (continuous queries, report queries) are captured as raw
text and handed to ``repro.query`` at compile time — the subscription parser
only locates their boundaries.
"""

from __future__ import annotations

import calendar
import datetime
import math
import re
from typing import List, Optional

from ..errors import SubscriptionSyntaxError
from .ast import (
    AtomicCondition,
    CHANGE_KINDS,
    ContinuousQuery,
    CountCondition,
    DOC_STATUS,
    DOCID_EQ,
    DOMAIN_EQ,
    DTD_EQ,
    DTDID_EQ,
    ELEMENT,
    FILENAME_EQ,
    FromBinding,
    ImmediateCondition,
    KIND_UPDATED,
    LAST_ACCESSED,
    LAST_UPDATE,
    MonitoringQuery,
    NotificationTrigger,
    PeriodicCondition,
    RefreshStatement,
    ReportCondition,
    ReportSpec,
    SELF_CONTAINS,
    SelectSpec,
    Subscription,
    URL_EQ,
    URL_EXTENDS,
    VirtualReference,
)
from .frequencies import FREQUENCY_WORDS
from .lexer import CMP, NUMBER, PUNCT, STRING, TEMPLATE, WORD, Token, tokenize

#: An ISO date in ASCII digits; ``_parse_date`` checks it is a real day.
_ISO_DATE = re.compile(r"([0-9]+)-([0-9]+)-([0-9]+)")
#: ``modified`` is the paper's synonym for ``updated`` ("and modified self").
_CHANGE_WORDS = dict(
    {kind: kind for kind in CHANGE_KINDS}, modified=KIND_UPDATED
)


class _Tokens:
    def __init__(self, tokens: List[Token], source: str):
        self._tokens = tokens
        self._index = 0
        self.source = source

    def peek(self, ahead: int = 0) -> Optional[Token]:
        index = self._index + ahead
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SubscriptionSyntaxError("unexpected end of subscription")
        self._index += 1
        return token

    def accept_word(self, *words: str) -> Optional[Token]:
        token = self.peek()
        if token and token.kind == WORD and token.value in words:
            self._index += 1
            return token
        return None

    def expect_word(self, word: str) -> Token:
        token = self.accept_word(word)
        if token is None:
            found = self.peek()
            raise SubscriptionSyntaxError(
                f"expected {word!r}, found"
                f" {found.value if found else 'end of input'!r}",
                found.line if found else 0,
                found.column if found else 0,
            )
        return token

    def accept_punct(self, value: str) -> bool:
        token = self.peek()
        if token and token.kind == PUNCT and token.value == value:
            self._index += 1
            return True
        return False

    def expect_kind(self, kind: str, what: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise SubscriptionSyntaxError(
                f"expected {what}, found {token.value!r}",
                token.line,
                token.column,
            )
        return token


def parse_subscription(source: str) -> Subscription:
    """Parse one subscription definition."""
    stream = _Tokens(tokenize(source), source)
    stream.expect_word("subscription")
    name = stream.expect_kind(WORD, "a subscription name").value

    monitoring: List[MonitoringQuery] = []
    continuous: List[ContinuousQuery] = []
    report: Optional[ReportSpec] = None
    refreshes: List[RefreshStatement] = []
    virtuals: List[VirtualReference] = []

    while True:
        token = stream.peek()
        if token is None:
            break
        if token.kind != WORD:
            raise SubscriptionSyntaxError(
                f"expected a section keyword, found {token.value!r}",
                token.line,
                token.column,
            )
        if token.value == "monitoring":
            stream.next()
            monitoring.append(_parse_monitoring(stream))
        elif token.value == "continuous":
            stream.next()
            continuous.append(_parse_continuous(stream))
        elif token.value == "report":
            stream.next()
            if report is not None:
                raise SubscriptionSyntaxError(
                    "a subscription has at most one report section",
                    token.line,
                    token.column,
                )
            report = _parse_report(stream)
        elif token.value == "refresh":
            stream.next()
            refreshes.append(_parse_refresh(stream))
        elif token.value == "virtual":
            stream.next()
            virtuals.append(_parse_virtual(stream))
        else:
            raise SubscriptionSyntaxError(
                f"unexpected section {token.value!r}", token.line, token.column
            )

    return Subscription(
        name=name,
        monitoring=tuple(monitoring),
        continuous=tuple(continuous),
        report=report,
        refreshes=tuple(refreshes),
        virtuals=tuple(virtuals),
    )


# -- monitoring queries ---------------------------------------------------------


def _parse_monitoring(stream: _Tokens) -> MonitoringQuery:
    # Optional query name before the select keyword.
    name: Optional[str] = None
    token = stream.peek()
    if token and token.kind == WORD and token.value not in ("select",):
        name = stream.next().value
    stream.expect_word("select")
    select = _parse_select_spec(stream)
    from_bindings: List[FromBinding] = []
    if stream.accept_word("from"):
        from_bindings.append(_parse_from_binding(stream))
        while stream.accept_punct(","):
            from_bindings.append(_parse_from_binding(stream))
    stream.expect_word("where")
    disjuncts = [_parse_conjunction(stream, from_bindings)]
    while stream.accept_word("or"):
        disjuncts.append(_parse_conjunction(stream, from_bindings))
    return MonitoringQuery(
        name=name,
        select=select,
        from_bindings=tuple(from_bindings),
        conditions=disjuncts[0],
        extra_disjuncts=tuple(disjuncts[1:]),
    )


def _parse_conjunction(
    stream: _Tokens, from_bindings: List[FromBinding]
) -> tuple:
    conditions = [_parse_condition(stream, from_bindings)]
    while stream.accept_word("and"):
        conditions.append(_parse_condition(stream, from_bindings))
    return tuple(conditions)


def _parse_select_spec(stream: _Tokens) -> SelectSpec:
    token = stream.peek()
    if token is None:
        raise SubscriptionSyntaxError("select clause is empty")
    if token.kind == TEMPLATE:
        stream.next()
        return SelectSpec(template=token.value)
    items = [stream.expect_kind(WORD, "a select item").value]
    while stream.accept_punct(","):
        items.append(stream.expect_kind(WORD, "a select item").value)
    return SelectSpec(items=tuple(items))


def _parse_from_binding(stream: _Tokens) -> FromBinding:
    path = stream.expect_kind(WORD, "a path").value
    variable = stream.expect_kind(WORD, "a variable name").value
    return FromBinding(path=path, variable=variable)


def _parse_condition(
    stream: _Tokens, from_bindings: List[FromBinding]
) -> AtomicCondition:
    token = stream.next()
    if token.kind != WORD:
        raise SubscriptionSyntaxError(
            f"expected a condition, found {token.value!r}",
            token.line,
            token.column,
        )
    word = token.value

    if word == "URL":
        if stream.accept_word("extends"):
            value = stream.expect_kind(STRING, "a URL prefix").value
            return AtomicCondition(kind=URL_EXTENDS, string=value)
        _expect_cmp(stream, "=")
        value = stream.expect_kind(STRING, "a URL").value
        return AtomicCondition(kind=URL_EQ, string=value)
    if word == "filename":
        _expect_cmp(stream, "=")
        value = stream.expect_kind(STRING, "a filename").value
        return AtomicCondition(kind=FILENAME_EQ, string=value)
    if word == "DTD":
        _expect_cmp(stream, "=")
        value = stream.expect_kind(STRING, "a DTD URL").value
        return AtomicCondition(kind=DTD_EQ, string=value)
    if word == "DTDID":
        _expect_cmp(stream, "=")
        number = stream.expect_kind(NUMBER, "a DTD id")
        return AtomicCondition(kind=DTDID_EQ, number=_number(number))
    if word == "DOCID":
        _expect_cmp(stream, "=")
        number = stream.expect_kind(NUMBER, "a document id")
        return AtomicCondition(kind=DOCID_EQ, number=_number(number))
    if word == "domain":
        _expect_cmp(stream, "=")
        value = stream.expect_kind(STRING, "a domain name").value
        return AtomicCondition(kind=DOMAIN_EQ, string=value)
    if word in ("LastAccessed", "LastUpdate"):
        cmp_token = stream.next()
        if cmp_token.kind != CMP:
            raise SubscriptionSyntaxError(
                f"expected a comparator after {word}, found"
                f" {cmp_token.value!r}",
                cmp_token.line,
                cmp_token.column,
            )
        date_token = stream.next()
        timestamp = _parse_date(date_token)
        kind = LAST_ACCESSED if word == "LastAccessed" else LAST_UPDATE
        return AtomicCondition(
            kind=kind, comparator=cmp_token.value, number=timestamp
        )
    if word == "self":
        stream.expect_word("contains")
        value = stream.expect_kind(STRING, "a word").value
        return AtomicCondition(kind=SELF_CONTAINS, string=value)
    if word in _CHANGE_WORDS:
        change_kind = _CHANGE_WORDS[word]
        if stream.accept_word("self"):
            return AtomicCondition(kind=DOC_STATUS, change_kind=change_kind)
        target = stream.expect_kind(WORD, "an element tag or variable").value
        return _parse_element_tail(stream, target, change_kind)
    # Bare element condition: a tag (or bound variable), maybe "contains".
    return _parse_element_tail(stream, word, None)


def _parse_element_tail(
    stream: _Tokens, target: str, change_kind: Optional[str]
) -> AtomicCondition:
    strict = False
    word_value: Optional[str] = None
    if stream.accept_word("strict"):
        stream.expect_word("contains")
        strict = True
        word_value = stream.expect_kind(STRING, "a word").value
    elif stream.accept_word("contains"):
        word_value = stream.expect_kind(STRING, "a word").value
    return AtomicCondition(
        kind=ELEMENT,
        target=target,
        change_kind=change_kind,
        string=word_value,
        strict=strict,
    )


def _expect_cmp(stream: _Tokens, expected: str) -> None:
    token = stream.next()
    if token.kind != CMP or token.value != expected:
        raise SubscriptionSyntaxError(
            f"expected {expected!r}, found {token.value!r}",
            token.line,
            token.column,
        )


def _number(token: Token) -> float:
    """The value of a NUMBER token, which may still be no finite number
    (``1.2.3``, or more digits than a float holds)."""
    try:
        value = float(token.value)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SubscriptionSyntaxError(
            f"malformed number {token.value!r}", token.line, token.column
        )
    return value


def _parse_date(token: Token) -> float:
    """Accept epoch seconds or an ISO date (``2001-05-21``), as UTC."""
    if token.kind == NUMBER:
        return _number(token)
    match = _ISO_DATE.fullmatch(token.value)
    if token.kind == STRING and match:
        try:
            day = datetime.date(*(int(part) for part in match.groups()))
        except (ValueError, OverflowError):  # no such day, e.g. 2001-02-30
            pass
        else:
            return float(calendar.timegm(day.timetuple()))
    raise SubscriptionSyntaxError(
        f"expected a date, found {token.value!r}", token.line, token.column
    )


# -- continuous queries -----------------------------------------------------------


def _parse_continuous(stream: _Tokens) -> ContinuousQuery:
    delta = stream.accept_word("delta") is not None
    name = stream.expect_kind(WORD, "a continuous query name").value
    query_start_token = stream.expect_word("select")
    # Capture raw query text up to the "when"/"try" keyword.
    end_offset = query_start_token.start
    while True:
        token = stream.peek()
        if token is None:
            raise SubscriptionSyntaxError(
                "continuous query is missing its when/try clause"
            )
        if token.kind == WORD and token.value in ("when", "try"):
            break
        end_offset = token.end
        stream.next()
    query_text = stream.source[query_start_token.start : end_offset]
    stream.next()  # consume when/try
    frequency_token = stream.accept_word(*FREQUENCY_WORDS)
    if frequency_token is not None:
        return ContinuousQuery(
            name=name,
            query_text=query_text,
            delta=delta,
            frequency=frequency_token.value,
        )
    subscription = stream.expect_kind(WORD, "a notification reference").value
    if not stream.accept_punct("."):
        raise SubscriptionSyntaxError(
            "a notification trigger is written Subscription.QueryName"
        )
    query_name = stream.expect_kind(WORD, "a monitoring query name").value
    return ContinuousQuery(
        name=name,
        query_text=query_text,
        delta=delta,
        trigger=NotificationTrigger(subscription=subscription, query=query_name),
    )


# -- reports -------------------------------------------------------------------------


def _parse_report(stream: _Tokens) -> ReportSpec:
    query_text: Optional[str] = None
    token = stream.peek()
    if token is not None and token.kind == WORD and token.value == "select":
        start = token.start
        end = token.end
        while True:
            ahead = stream.peek()
            if ahead is None:
                raise SubscriptionSyntaxError(
                    "report section is missing its when clause"
                )
            if ahead.kind == WORD and ahead.value == "when":
                break
            end = ahead.end
            stream.next()
        query_text = stream.source[start:end]
    stream.expect_word("when")
    when = _parse_report_condition(stream)
    atmost_count: Optional[int] = None
    atmost_frequency: Optional[str] = None
    archive_frequency: Optional[str] = None
    while True:
        if stream.accept_word("atmost"):
            token = stream.next()
            if token.kind == NUMBER:
                atmost_count = int(_number(token))
            elif token.kind == WORD and token.value in FREQUENCY_WORDS:
                atmost_frequency = token.value
            else:
                raise SubscriptionSyntaxError(
                    f"atmost expects a count or frequency, found"
                    f" {token.value!r}",
                    token.line,
                    token.column,
                )
            continue
        if stream.accept_word("archive"):
            token = stream.next()
            if token.kind != WORD or token.value not in FREQUENCY_WORDS:
                raise SubscriptionSyntaxError(
                    f"archive expects a frequency, found {token.value!r}",
                    token.line,
                    token.column,
                )
            archive_frequency = token.value
            continue
        break
    return ReportSpec(
        when=when,
        query_text=query_text,
        atmost_count=atmost_count,
        atmost_frequency=atmost_frequency,
        archive_frequency=archive_frequency,
    )


def _parse_report_condition(stream: _Tokens) -> ReportCondition:
    terms = [_parse_report_term(stream)]
    while stream.accept_word("or"):
        terms.append(_parse_report_term(stream))
    return ReportCondition(terms=tuple(terms))


def _parse_report_term(stream: _Tokens):
    token = stream.next()
    if token.kind == WORD and token.value == "immediate":
        return ImmediateCondition()
    if token.kind == WORD and token.value in FREQUENCY_WORDS:
        return PeriodicCondition(frequency=token.value)
    if token.kind == WORD and token.value == "notifications":
        # The paper's "notifications.count > 100" form.
        if not stream.accept_punct("."):
            raise SubscriptionSyntaxError(
                "expected '.count' after 'notifications'",
                token.line,
                token.column,
            )
        stream.expect_word("count")
        return _parse_count_tail(stream, query_name=None)
    if token.kind == WORD and token.value == "count":
        query_name: Optional[str] = None
        if stream.accept_punct("("):
            query_name = stream.expect_kind(
                WORD, "a monitoring query name"
            ).value
            if not stream.accept_punct(")"):
                raise SubscriptionSyntaxError("expected ')' after count(...)")
        return _parse_count_tail(stream, query_name=query_name)
    if token.kind == WORD:
        # "UpdatedPage >= 10" — count of a named monitoring query.
        return _parse_count_tail(stream, query_name=token.value)
    raise SubscriptionSyntaxError(
        f"expected a report condition, found {token.value!r}",
        token.line,
        token.column,
    )


def _parse_count_tail(stream: _Tokens, query_name: Optional[str]):
    cmp_token = stream.next()
    if cmp_token.kind != CMP or cmp_token.value not in (">", ">=", "="):
        raise SubscriptionSyntaxError(
            f"count conditions use >, >= or =, found {cmp_token.value!r}",
            cmp_token.line,
            cmp_token.column,
        )
    number = stream.expect_kind(NUMBER, "a count")
    threshold = int(_number(number))
    if cmp_token.value == ">":
        # "count > 100" fires at 101 gathered notifications.
        threshold += 1
        comparator = ">="
    else:
        comparator = ">="
    return CountCondition(
        threshold=threshold, query_name=query_name, comparator=comparator
    )


# -- refresh & virtual ------------------------------------------------------------------


def _parse_refresh(stream: _Tokens) -> RefreshStatement:
    url = stream.expect_kind(STRING, "a URL").value
    token = stream.next()
    if token.kind != WORD or token.value not in FREQUENCY_WORDS:
        raise SubscriptionSyntaxError(
            f"refresh expects a frequency, found {token.value!r}",
            token.line,
            token.column,
        )
    return RefreshStatement(url=url, frequency=token.value)


def _parse_virtual(stream: _Tokens) -> VirtualReference:
    subscription = stream.expect_kind(WORD, "a subscription name").value
    query: Optional[str] = None
    if stream.accept_punct("."):
        query = stream.expect_kind(WORD, "a query name").value
    return VirtualReference(subscription=subscription, query=query)
