"""Token-stream oracle (hypothesis): the one-regex ``tokenize`` lists
exactly the tokens the character-at-a-time lexer did.

The reference below is the earlier ``Lexer``, which advanced one
character at a time.  On every subscription source in ``tests/``,
``examples/``, ``benchmarks/`` and the benchmark's crawl-catalog and
churn-fanout worlds, on mutations of those, and on sources drawn from a
small alphabet of the lexically awkward characters, both must give the
same ``(kind, value, line, column, start, end)`` list or fail with the
same message at the same line and column.

Exempt: characters that are numeric but not decimal digits (``²``,
``½``).  The reference classified by ``str.isdigit`` / ``str.isalpha``;
the regex uses ``\\d`` (decimal digits only) and ``\\w``, so such a
character starts a word rather than a number or an error.

Exempt too: a quote in a ``select`` template's element text (``select
<Note>it's new</Note>``).  The reference opened a quoted run at any quote
in a template, so such a template ran on to a later quote or to the end
of the input; ``tokenize`` takes only an attribute value inside a tag as
a quoted run, and ``TestTemplateQuotes`` in ``test_language_parser.py``
pins that behaviour.

On exempt sources only the parser property is checked: a bad source
raises ``SubscriptionSyntaxError`` and nothing else.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.errors import SubscriptionSyntaxError
from repro.language import parse_subscription
from repro.language.lexer import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# -- the reference: the earlier character-at-a-time lexer ----------------------

_COMPARATORS = ("<=", ">=", "!=", "=", "<", ">")
_PUNCT_CHARS = ",.()@*"


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int
    start: int
    end: int


class ReferenceLexer:
    def __init__(self, source: str):
        self.source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> List[_Token]:
        out: List[_Token] = []
        while True:
            token = self._next_token(
                template_ok=bool(out)
                and out[-1].kind == "word"
                and out[-1].value == "select"
            )
            if token is None:
                return out
            out.append(token)

    def _error(self, message: str) -> SubscriptionSyntaxError:
        return SubscriptionSyntaxError(message, self._line, self._column)

    def _advance(self, count: int) -> str:
        chunk = self.source[self._pos : self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return chunk

    def _skip_blank(self) -> None:
        while self._pos < len(self.source):
            ch = self.source[self._pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif ch == "%":
                end = self.source.find("\n", self._pos)
                if end == -1:
                    end = len(self.source)
                self._advance(end - self._pos)
            else:
                return

    def _next_token(self, template_ok: bool) -> Optional[_Token]:
        self._skip_blank()
        if self._pos >= len(self.source):
            return None
        line, column, start = self._line, self._column, self._pos
        ch = self.source[self._pos]

        if ch == "<" and template_ok:
            value = self._read_template()
            return _Token("template", value, line, column, start, self._pos)

        for comparator in _COMPARATORS:
            if self.source.startswith(comparator, self._pos):
                self._advance(len(comparator))
                return _Token("cmp", comparator, line, column, start, self._pos)

        if ch in "\"'":
            value = self._read_string()
            return _Token("string", value, line, column, start, self._pos)

        if ch in _PUNCT_CHARS:
            self._advance(1)
            return _Token("punct", ch, line, column, start, self._pos)

        if ch.isdigit():
            value = self._read_number()
            return _Token("number", value, line, column, start, self._pos)

        if ch.isalpha() or ch in "_/":
            value = self._read_word()
            return _Token("word", value, line, column, start, self._pos)

        raise self._error(f"unexpected character {ch!r}")

    def _read_string(self) -> str:
        quote = self.source[self._pos]
        self._advance(1)
        end = self.source.find(quote, self._pos)
        if end == -1:
            raise self._error("unterminated string literal")
        value = self.source[self._pos : end]
        self._advance(end - self._pos + 1)
        return value

    def _read_number(self) -> str:
        start = self._pos
        while self._pos < len(self.source) and (
            self.source[self._pos].isdigit() or self.source[self._pos] == "."
        ):
            if self.source[self._pos] == "." and not (
                self._pos + 1 < len(self.source)
                and self.source[self._pos + 1].isdigit()
            ):
                break
            self._advance(1)
        return self.source[start : self._pos]

    def _read_word(self) -> str:
        start = self._pos
        while self._pos < len(self.source) and (
            self.source[self._pos].isalnum()
            or self.source[self._pos] in "_-:/"
        ):
            self._advance(1)
        return self.source[start : self._pos]

    def _read_template(self) -> str:
        start = self._pos
        depth = 0
        in_quote: Optional[str] = None
        while self._pos < len(self.source):
            ch = self.source[self._pos]
            if in_quote is not None:
                if ch == in_quote:
                    in_quote = None
                self._advance(1)
                continue
            if ch in "\"'":
                in_quote = ch
                self._advance(1)
                continue
            if ch == "<":
                if self.source.startswith("</", self._pos):
                    depth -= 1
                else:
                    depth += 1
                self._advance(1)
                continue
            if ch == ">":
                if self.source[self._pos - 1] == "/":
                    depth -= 1
                self._advance(1)
                if depth == 0:
                    return self.source[start : self._pos]
                continue
            self._advance(1)
        raise self._error("unterminated XML template in select clause")


def outcome(lex, source: str):
    try:
        return [
            (t.kind, t.value, t.line, t.column, t.start, t.end)
            for t in lex(source)
        ]
    except SubscriptionSyntaxError as error:
        return ("error", str(error), error.line, error.column)


def assert_same_tokens(source: str) -> None:
    expected = outcome(lambda text: ReferenceLexer(text).tokens(), source)
    assert outcome(tokenize, source) == expected, source


#: Where a ``select`` template may open: ``select``, blanks and comments, ``<``.
#: Also found inside strings and longer words, which only widens the
#: exemption below by a few sources, never narrows it.
_TEMPLATE_OPENING = re.compile(r"select(?:[ \t\r\n]|%[^\n]*)*<")


def quote_in_template_text(source: str) -> bool:
    """Whether a quote stands outside every tag of a ``select`` template,
    before the template closes: the one place where the reference and
    ``tokenize`` part ways on quotes.  Both scan alike up to that quote."""
    for opening in _TEMPLATE_OPENING.finditer(source):
        depth, in_tag, quote = 0, False, None
        for pos in range(opening.end() - 1, len(source)):
            ch = source[pos]
            if quote is not None:
                if ch == quote:
                    quote = None
            elif ch in "\"'":
                if not in_tag:
                    return True
                quote = ch
            elif ch == "<":
                depth += -1 if source.startswith("</", pos) else 1
                in_tag = True
            elif ch == ">":
                in_tag = False
                if source[pos - 1] == "/":
                    depth -= 1
                if depth == 0:
                    break
    return False


def exempt(source: str) -> bool:
    """The two exemptions of the module docstring."""
    return quote_in_template_text(source) or any(
        ch.isnumeric() and not ch.isdecimal() for ch in source
    )


def check_tokens(source: str) -> None:
    """Identical tokens; on an exempt source, syntax errors only."""
    if not exempt(source):
        assert_same_tokens(source)
        return
    try:
        parse_subscription(source)
    except SubscriptionSyntaxError:
        pass


# -- the corpus --------------------------------------------------------------------


def _literal_sources() -> List[str]:
    sources = []
    for folder in ("tests", "examples", "benchmarks"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            sources.extend(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("subscription")
            )
    return sources


def _benchmark_sources() -> List[str]:
    """The crawl-catalog and churn-fanout subscription texts, at tiny size."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        scenarios = importlib.import_module("scenarios")
    finally:
        sys.path[:] = saved
    sizes = scenarios.SIZES["tiny"]
    crawl = scenarios.crawl_catalog_world(1, sizes["crawl-catalog"])
    churn = scenarios.churn_fanout_world(1, sizes["churn-fanout"])
    swapped = [source for swap in churn.swaps for source in swap]
    return crawl.initial + churn.initial + swapped


LITERALS = _literal_sources()
CORPUS = LITERALS + _benchmark_sources()

#: The traps of the old lexer's rules, spelled out.
EDGE_CASES = [
    "100.count", "Sub.Query", "1..2", "1.2.3", "2.5.", "x1.5", "a-b:c/d",
    "//x", "_x", "-x", ":x", "a ! b", "a != b", "<=>=<>", "= =",
    '"open', "x\n'open", '"two\nlines" x', "% only a comment",
    "a % comment\n% another\r\nb", "\t\r\n", "select <a/>",
    "select <a></a> x", "select <a></> x", "select </>", "select <a//>",
    "select <a x='/'/>", "select <a x=\"</b>\"/>", "select <a>it's</a>",
    "select <a", "select\n<a\n  b='1\n2'\n/>\nwhere", "select % c\n<a/>",
    "select <a>x/> y", "select <a>x>y</a> z", "select <a x='1'>'</a>",
    "select, <a/>", "x select <a/>", "select <= 3", "select<a/>",
    "'select' <a/>",
    "é٣ ٣é ٣.٣", "\x0b", "a\u00a0b", "#",
]

#: Fragments a mutation inserts or substitutes.
FRAGMENTS = [
    '"', "'", "%", "<", ">", "/>", "</", "\n", "\r\n", ".", "é", "٣", " ",
    "\t", "=", "!", "!=", "<=", ">=", "select", "select <a>", "when", "1",
    "2.5", "1.2.3", "(", ")", ",", "-", ":", "/", "//", "@", "*", "_", "x",
    "a1", "#", "&", '"x"', "'2001-05-21'",
]
#: Numeric-but-not-decimal characters and bad literals: the parser must
#: still answer with a syntax error.
BAD_LITERALS = [
    "²", "½", "1²", "1.2.3", '"2001-13-45"', '"20011-05-21"',
    '"2001-02-30"', '"2001-٣-01"', '"0-01-01"', "9" * 400,
]
#: Clauses with a literal slot, inserted before a section or condition
#: keyword (or at the end), so that bad literals reach the number and
#: date conversions.
CLAUSES = [
    "and DOCID = {}", "and DTDID = {}", "and LastUpdate > {}",
    "or LastAccessed <= {}", "atmost {}", "report when count >= {}",
    "report when notifications.count > {}",
]
_BOUNDARY_WORDS = {
    "and", "or", "monitoring", "continuous", "report", "refresh", "virtual",
}


@st.composite
def mutated(draw, fragments=FRAGMENTS, clauses=False):
    """A corpus source with edits: a fragment inserted at an offset, or a
    whole token or an arbitrary slice replaced by one.  With ``clauses``,
    first a clause holding a bad literal is inserted where it parses."""
    source = draw(st.sampled_from(CORPUS))
    if clauses:
        offsets = [
            t.start for t in _safe_tokens(source) if t.value in _BOUNDARY_WORDS
        ]
        offset = draw(st.sampled_from(offsets + [len(source)]))
        clause = draw(st.sampled_from(CLAUSES)).format(
            draw(st.sampled_from(BAD_LITERALS + ["3", '"2001-05-21"']))
        )
        source = f"{source[:offset]}\n{clause}\n{source[offset:]}"
    for _ in range(draw(st.integers(0 if clauses else 1, 3))):
        spans = [(t.start, t.end) for t in _safe_tokens(source)]
        if spans and draw(st.booleans()):
            start, end = draw(st.sampled_from(spans))
        else:
            start = draw(st.integers(0, len(source)))
            end = draw(st.integers(start, min(len(source), start + 6)))
        source = source[:start] + draw(st.sampled_from(fragments)) + source[end:]
    return source


def _safe_tokens(source: str):
    try:
        return tokenize(source)
    except SubscriptionSyntaxError:
        return []


ALPHABET = [
    '"', "'", "%", "<", "/>", "</", ">", "\n", "\r", "\t", " ", ".", "é",
    "٣", "1", "0", "a", "Z", "_", "-", ":", "/", "=", "!", ",", "(", ")",
    "@", "*", "#", "select", "select ", "where",
]


# -- tests --------------------------------------------------------------------------


def test_corpus_is_collected():
    assert len(LITERALS) >= 50
    assert any("select <" in source for source in CORPUS)
    assert any(source.startswith("subscription Churn") for source in CORPUS)
    assert any(source.startswith("subscription New") for source in CORPUS)


def test_identical_tokens_on_the_corpus():
    for source in CORPUS + EDGE_CASES:
        check_tokens(source)


def test_quote_exemption_covers_only_template_text():
    assert quote_in_template_text("select <a>it's</a>")
    assert quote_in_template_text('select % c\n<a><b/>say "x"</a>')
    assert not quote_in_template_text("select <a x='>'/> where 'it'")
    assert not quote_in_template_text("select <a/> 'x'")
    assert not quote_in_template_text("where x = \"<a>'\"")
    assert sum(map(exempt, CORPUS + EDGE_CASES)) <= 3


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_identical_tokens_on_awkward_sources(source):
    check_tokens(source)


#: Template pieces: tags, attribute quotes and element text.
TEMPLATE_ALPHABET = [
    "<", "</", "/>", ">", "a", "x=", " ", "\n", '"', "'", "/", "é", "%",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TEMPLATE_ALPHABET), max_size=24).map("".join))
def test_identical_tokens_on_awkward_templates(body):
    check_tokens(f"select <{body} where")


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_identical_tokens_on_mutated_corpus(source):
    check_tokens(source)


def test_word_and_digit_classes_match_the_str_predicates():
    """Over every code point, ``\\w`` is ``isalnum() or _`` and ``\\d`` is
    ``isdecimal()``: so the only characters the two lexers classify
    differently are the numeric-but-not-decimal ones."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    words = set(re.findall(r"\w", text))
    digits = set(re.findall(r"\d", text))
    assert words == {ch for ch in text if ch.isalnum() or ch == "_"}
    assert digits == {ch for ch in text if ch.isdecimal()}


@settings(max_examples=400, deadline=None)
@given(mutated(FRAGMENTS + BAD_LITERALS, clauses=True))
def test_the_parser_raises_only_syntax_errors(source):
    if not exempt(source):
        assert_same_tokens(source)
    try:
        parse_subscription(source)
    except SubscriptionSyntaxError:
        pass
