"""Notification rendering: MQP notifications -> serialized XML elements.

A monitoring query's ``select`` clause decides what a notification carries
(Section 5.1).  A notification is the text of one XML element from here to
the report sinks.  Three cases:

* **template** — ``select <UpdatedPage url=URL/>``: the XML template is
  parsed once, at subscribe time; unquoted attribute values naming a pseudo
  variable (``URL`` — the document URL, ``DATE`` — the detection
  timestamp) become slots each notification fills with escaped values.
* **items** — ``select X`` with ``from self//Member X``: the alerter put the
  serialized elements matched for X's condition in the alert's data
  payload; they are carried unchanged as the notification content.
* **default** — the paper's implemented behaviour ("notifications simply
  return the URL of the document that triggered the monitoring query and
  basic informations"): ``<Notification query=... url=... date=.../>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.processor import Notification
from ..errors import SubscriptionError, XMLSyntaxError
from ..language.ast import MonitoringQuery
from ..xmlstore.parser import parse
from ..xmlstore.serializer import escape_attribute, serialize

#: Markup whose text is left alone (comments, CDATA sections, processing
#: instructions and declarations), or a start tag, whose unquoted
#: attribute values (``url=URL``) are quoted.
_MARKUP_RE = re.compile(
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<[?!][^>]*>"
    r"|(<[^\s<>/!?][^\s<>/]*(?:\s+[^\s<>=/]+\s*=\s*"
    r"""(?:"[^"]*"|'[^']*'|[A-Za-z_][A-Za-z0-9_]*))*\s*/?>)""",
    re.DOTALL,
)
#: Inside a start tag: a quoted value (kept) or an unquoted one.
_UNQUOTED_ATTR_RE = re.compile(
    r"""("[^"]*"|'[^']*')|=\s*([A-Za-z_][A-Za-z0-9_]*)"""
)
#: Brackets slot names: a private-use character survives parse, serialize.
_SLOT_MARK = "\ue000"


#: A compiled ``select`` template: notification -> its text.
Template = Callable[[Notification], str]


def compile_template(template: str) -> Template:
    """Parse a ``select`` template (other unquoted values stay literals);
    raises :class:`SubscriptionError` unless it is well-formed XML."""

    def mark(match: "re.Match[str]") -> str:
        name = match.group(2)
        if name is None:  # a quoted value
            return match.group(1)
        if name in ("URL", "DATE"):
            name = f"{_SLOT_MARK}{name}{_SLOT_MARK}"
        return f'="{name}"'

    def quote(match: "re.Match[str]") -> str:
        tag = match.group(1)
        if tag is None:  # markup whose text is not attributes
            return match.group(0)
        return _UNQUOTED_ATTR_RE.sub(mark, tag)

    if _SLOT_MARK in template:
        raise SubscriptionError(f"select template {template!r} uses U+E000")
    try:
        root = parse(_MARKUP_RE.sub(quote, template)).root
    except XMLSyntaxError as exc:
        raise SubscriptionError(
            f"select template {template!r} is not well-formed XML: {exc}"
        ) from exc
    # Static text at even indexes, a slot name at odd ones.
    pieces = serialize(root).split(_SLOT_MARK)

    def fill(notification: Notification) -> str:
        filled = list(pieces)
        for index in range(1, len(filled), 2):
            if filled[index] == "URL":
                filled[index] = escape_attribute(notification.document_url)
            else:
                filled[index] = f"{notification.timestamp:.0f}"
        return "".join(filled)

    return fill


@dataclass
class NotificationBinding:
    """Everything needed to render notifications of one complex event."""

    subscription_id: int
    subscription_name: str
    query_name: str
    #: The ``select`` template compiled, shared by every binding of it.
    template: Optional[Template]
    #: In select order, the atomic event codes whose payloads carry the
    #: select items' matches.
    item_codes: Tuple[int, ...] = ()

    def render(self, notification: Notification) -> List[str]:
        if self.template is not None:
            return [self.template(notification)]
        texts: List[str] = []
        for code in self.item_codes:
            texts.extend(notification.data.get(code, ()))
        if texts:
            return texts
        return [
            f'<Notification query="{escape_attribute(self.query_name)}"'
            f' url="{escape_attribute(notification.document_url)}"'
            f' date="{notification.timestamp:.0f}"/>'
        ]


def item_event_codes(
    query: MonitoringQuery,
    condition_codes: List[int],
) -> Dict[str, int]:
    """Map each select item to the atomic-event code of its condition.

    ``condition_codes`` holds the interned code of each condition, aligned
    with ``query.conditions``.  An item maps to the first element condition
    targeting the same variable — directly (``new X``) or through the tag
    the variable's binding path resolves to (``from self//Product X`` +
    ``new Product``).
    """
    from ..language.conditions import resolve_target_tag

    mapping: Dict[str, int] = {}
    for item in query.select.items:
        variable = item.split("/", 1)[0].split("@", 1)[0]
        try:
            variable_tag: Optional[str] = resolve_target_tag(
                variable, query.from_bindings
            )
        except SubscriptionError:
            variable_tag = None
        for condition, code in zip(query.conditions, condition_codes):
            if condition.kind != "element":
                continue
            target_tag = resolve_target_tag(
                condition.target or "", query.from_bindings
            )
            if condition.target == variable or (
                variable_tag is not None and target_tag == variable_tag
            ):
                mapping[item] = code
                break
    return mapping
