"""Lexer for the subscription language.

Token kinds: WORD, STRING, NUMBER, CMP (comparators), PUNCT and TEMPLATE
(a balanced XML snippet following ``select``, captured verbatim).  ``%``
starts a comment running to end of line — the paper's examples use this.

Tokens carry (line, column) and the source span, so the parser can slice
embedded warehouse-query text verbatim out of the subscription source.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import SubscriptionSyntaxError

WORD = "word"
STRING = "string"
NUMBER = "number"
CMP = "cmp"
PUNCT = "punct"
TEMPLATE = "template"

#: Blanks and ``%`` comments, then one alternative per token kind; the
#: group name is the kind.  ``@`` and ``*`` appear inside embedded
#: warehouse-query text (report and continuous queries), which the
#: subscription lexer passes through.  A word starts with a letter, ``_``
#: or ``/`` and may hold ``- : /`` (``self//Member``).  A number's ``.``
#: must be followed by a digit, so ``100.count`` is NUMBER PUNCT WORD.
#: ``stop`` is the end of the input or a character no token starts with.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]|%[^\n]*)*
    (?:
      (?P<cmp><=|>=|!=|=|<|>)
    | (?P<string>"[^"]*"|'[^']*')
    | (?P<punct>[,.()@*])
    | (?P<number>\d+(?:\.\d+)*)
    | (?P<word>(?:[^\W\d]|/)[\w:/-]*)
    | (?P<stop>\Z|.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
#: What the ``select`` template scanner looks at in element text: closing
#: tags, self-closing ends, openings and ends.  Quotes there are plain text.
_TEXT_MARK_RE = re.compile(r"</|/>|<|>")
#: The same inside a tag, where attribute values may be quoted: quoted text
#: first, then a lone (unterminated) quote.
_TAG_MARK_RE = re.compile(r""""[^"]*"|'[^']*'|["']|</|/>|<|>""")


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int
    start: int  # offset into the source
    end: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    match_token = _TOKEN_RE.match
    line, line_start = 1, 0
    pos = counted = 0  # newlines before ``counted`` are in ``line``
    after_select = False
    while True:
        match = match_token(source, pos)
        kind = match.lastgroup
        start = match.start(kind)
        # Only blanks, strings and templates hold newlines.
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        if kind == "stop":
            if start == len(source):
                return tokens
            char = source[start]
            if char in "\"'":
                raise SubscriptionSyntaxError(
                    "unterminated string literal", line, column + 1
                )
            raise SubscriptionSyntaxError(
                f"unexpected character {char!r}", line, column
            )
        pos = match.end()
        if after_select and source[start] == "<":
            kind, pos = TEMPLATE, _template_end(source, start)
        value = source[start:pos]
        if kind == STRING:
            value = value[1:-1]
        tokens.append(Token(kind, value, line, column, start, pos))
        after_select = kind == WORD and value == "select"


def _template_end(source: str, start: int) -> int:
    """The end of the balanced XML snippet opened at ``start`` (nested and
    self-closing elements; a quoted attribute value may hold angle brackets,
    while a quote in element text is just text)."""
    depth, pos, in_tag = 0, start, True
    mark = _TAG_MARK_RE.search(source, pos)
    while mark is not None and mark.group() not in ("'", '"'):
        text, pos = mark.group(), mark.end()
        if text == "<":
            depth, in_tag = depth + 1, True
        elif text == "</":
            depth, pos, in_tag = depth - 1, pos - 1, True  # "/" may start "/>"
        elif text == "/>":
            depth, in_tag = depth - 1, False
        elif text == ">":
            in_tag = False
        if depth == 0 and text in (">", "/>"):
            return pos
        mark = (_TAG_MARK_RE if in_tag else _TEXT_MARK_RE).search(source, pos)
    raise SubscriptionSyntaxError(  # at the end of the input
        "unterminated XML template in select clause",
        source.count("\n") + 1,
        len(source) - source.rfind("\n"),
    )
