"""Splicing oracle: a repository whose signing parse splices the stored
version's byte-identical records out of each page before expat reads it
is indistinguishable from one that never splices.

The reference below clears its stored memo's records before every
parse, so it reads every page whole (and still signs against the memo).
Version chains of one catalog-like page are edited as text, so records
stay byte-identical where the chain does not touch them: records moved,
duplicated, reordered, inserted, deleted and changed; CRLF inside a
record and tabs or newlines in attribute values; non-ASCII text;
root-level text and empty ``<p/>`` children between records; a record
copied into a comment, a CDATA section or a processing instruction (and
into an attribute value, which expat rejects); a record nested one level
deeper; literal elements named like the splice placeholder; an internal
DTD subset added and removed; restores followed by refetches.

After every step both must agree on the status, version, signature,
``delta.to_xml()``, touched XIDs, preorder XIDs, the serialized tree,
every node's ``signature`` and the memo's entries; a rejected page must
raise the same error (message, line, column) on both and leave the memo
as it was; no placeholder may be reachable from ``document``,
``old_document`` or the stored version; and every record the memo holds
must parse, on its own, to its signature and keys.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.diff import DOC_UNCHANGED, DOC_UPDATED, SignatureMemo
from repro.errors import XMLSyntaxError
from repro.repository import Repository
from repro.webworld import SiteGenerator
from repro.xmlstore import parse, serialize
from repro.xmlstore import parser as parser_module
from repro.xmlstore.nodes import ElementNode

from .test_repository_signing_parse import (
    HTML_BODY,
    URL,
    assert_no_placeholder,
    assert_signed_with_own_memo,
    observed,
    outcome_view,
)

# -- the reference: never splice ----------------------------------------------------


class WholeParseRepository(Repository):
    """The signing parse with no records: every page is read whole."""

    def _store_xml(self, url, content):
        doc_id = self._by_url.get(url)
        if doc_id is not None:
            self._docs[doc_id].memo.records = {}
        return super()._store_xml(url, content)


# -- invariants ---------------------------------------------------------------------


def assert_records_hold(repository: Repository) -> None:
    """Each record parses, on its own, to its signature and keys, and is
    a child of the root of the stored version."""
    for stored in repository._docs.values():
        if stored.current is None:
            continue
        children = {
            child.signature
            for child in stored.current.root.children
            if isinstance(child, ElementNode)
        }
        for record, (signature, keys) in stored.memo.records.items():
            memo = SignatureMemo()
            alone = parse(record.decode("utf-8"), memo)
            assert alone.root.signature == signature, record
            assert memo.entries == keys, record
            assert signature in children, record
            assert all(stored.memo.entries[key] == keys[key] for key in keys)


def syntax_error(loader, text: str) -> Tuple[str, int, int]:
    with pytest.raises(XMLSyntaxError) as caught:
        loader.store_xml(URL, text)
    return str(caught.value), caught.value.line, caught.value.column


# -- pages as text ------------------------------------------------------------------

SUBSET = '<!DOCTYPE catalog [<!ATTLIST Product kind CDATA "std">]>'
EXTERNAL = '<!DOCTYPE catalog SYSTEM "http://dtd.example/catalog.dtd">'
WORDS = ("lens", "tripod", "café", "東京", "flash", "zoom", "mémoire", "😀")

#: Page edits; the other steps act on the repositories.
EDITS = (
    "change",
    "move",
    "duplicate",
    "reorder",
    "insert",
    "delete",
    "crlf",
    "attribute-whitespace",
    "non-ascii",
    "root-text",
    "empty",
    "comment",
    "cdata",
    "pi",
    "nest",
    "literal",
    "subset",
    "doctype",
    "rename-root",
    "separator",
)
ACTIONS = ("in-attribute", "malformed", "html", "restore", "refetch")


class Page:
    """A catalog page kept as the texts of the root's children."""

    def __init__(self, seed: int):
        catalog = SiteGenerator(seed=seed).catalog(products=4)
        self.items: List[str] = [serialize(child) for child in catalog.root.children]
        self.prolog = ""
        self.root = "catalog"
        self.separator = ""
        self.serial = 100

    def text(self) -> str:
        body = self.separator.join(self.items)
        return f"{self.prolog}<{self.root}>{body}</{self.root}>"

    def records(self) -> List[int]:
        return [
            index
            for index, item in enumerate(self.items)
            if item.startswith("<")
            and not item.startswith(("<!", "<?"))
            and not item.endswith("/>")
        ]

    def fresh(self, rng: random.Random, body: str = "") -> str:
        self.serial += 1
        word = rng.choice(WORDS)
        return f'<Product id="{self.serial}"><name>{word}</name>{body}</Product>'

    def edit(self, step: str, rng: random.Random) -> None:
        items = self.items
        records = self.records() or [None]
        index = rng.choice(records)
        record = items[index] if index is not None else self.fresh(rng)
        spot = rng.randint(0, len(items))
        if step == "change" and index is not None:
            head, _, tail = record.partition("</")
            items[index] = f"{head} {rng.choice(WORDS)}</{tail}"
        elif step == "move" and index is not None:
            items.insert(rng.randint(0, len(items) - 1), items.pop(index))
        elif step == "duplicate":
            items.insert(spot, record)
        elif step == "reorder":
            rng.shuffle(items)
        elif step == "insert":
            items.insert(spot, self.fresh(rng, "<price>1.00</price>"))
        elif step == "delete" and len(items) > 1:
            del items[rng.randrange(len(items))]
        elif step == "crlf":
            items.insert(spot, self.fresh(rng, "\r\n<price>2\r\n.50</price>\r\n"))
        elif step == "attribute-whitespace":
            items.insert(spot, f'<Product id="a\tb\nc"><name>{rng.choice(WORDS)}</name></Product>')
        elif step == "non-ascii":
            items.insert(spot, self.fresh(rng, "<name>Ünïcödé ☃ 𝄞</name>"))
        elif step == "root-text":
            items.insert(spot, rng.choice(["loose text", "é &amp; more", "\n  "]))
        elif step == "empty":
            items.insert(spot, "<p/>")
        elif step == "comment":
            items.insert(spot, f"<!-- {record} -->")
        elif step == "cdata":
            items.insert(spot, f"<![CDATA[{record}]]>")
        elif step == "pi":
            items.insert(spot, f"<?keep {record}?>")
        elif step == "nest" and index is not None:
            items[index] = f"<box>{record}</box>"
        elif step == "literal":
            items.insert(
                spot,
                rng.choice(
                    ["<_/>", "<_><name>lens</name></_>", self.fresh(rng, "<_/>")]
                ),
            )
        elif step == "subset":
            self.prolog = "" if self.prolog == SUBSET else SUBSET
        elif step == "doctype":
            self.prolog = "" if self.prolog == EXTERNAL else EXTERNAL
        elif step == "rename-root":
            self.root = "shop" if self.root == "catalog" else "catalog"
        elif step == "separator":
            self.separator = rng.choice(["", "\n", "\r\n  ", " "])

    def malformed(self, rng: random.Random, in_attribute: bool) -> str:
        """The page with a child that expat rejects at some spot: a
        record copied into an attribute value (a raw ``<``), or a bad
        tag or entity."""
        if in_attribute and self.records():
            bad = f"<q note='{self.items[rng.choice(self.records())]}'/>"
        else:
            bad = rng.choice(["<x a=1/>", "&bogus;", "<oops>", "</wrong>", "<a><b></a>"])
        items = list(self.items)
        items.insert(rng.randint(0, len(items)), bad)
        body = self.separator.join(items)
        return f"{self.prolog}<{self.root}>{body}</{self.root}>"


def chain_actions(seed: int, steps: Sequence[str]) -> List[Tuple[str, str]]:
    """``(kind, text)`` actions for one URL: ``xml`` stores the text,
    ``malformed`` a page the parser rejects, ``html`` an HTML body and
    ``restore`` checkpoints and restores the repository."""
    rng = random.Random(seed)
    page = Page(seed)
    actions = [("xml", page.text())]
    for step in steps:
        if step in ("in-attribute", "malformed"):
            actions.append(
                ("malformed", page.malformed(rng, step == "in-attribute"))
            )
        elif step == "html":
            actions += [("html", HTML_BODY), ("xml", page.text())]
        elif step == "restore":
            actions.append(("restore", ""))
        elif step == "refetch":
            actions.append(("xml", page.text()))
        else:
            page.edit(step, rng)
            actions.append(("xml", page.text()))
    return actions


def restored(repository: Repository) -> Repository:
    twin = Repository(clock=repository.clock)
    twin.restore_state(repository.state_dict())
    return twin


def check_chain(actions: Sequence[Tuple[str, str]]) -> None:
    clock = SimulatedClock(1_000_000.0)
    repository = Repository(clock=clock)
    reference = WholeParseRepository(clock=clock)
    for number, (kind, text) in enumerate(actions):
        where = (number, kind, text)
        clock.advance(60)
        if kind == "restore":
            repository = restored(repository)
        elif kind == "html":
            assert outcome_view(repository.store_html(URL, text)) == (
                outcome_view(reference.store_html(URL, text))
            ), where
            continue
        elif kind == "malformed":
            memo = repository._docs[repository.meta_for_url(URL).doc_id].memo
            entries, records = memo.entries, memo.records
            assert syntax_error(repository, text) == syntax_error(
                reference, text
            ), where
            with pytest.raises(XMLSyntaxError) as plain:
                parse(text)
            assert syntax_error(repository, text)[0] == str(plain.value), where
            assert memo.entries is entries and memo.records is records, where
        else:
            outcome = repository.store_xml(URL, text)
            expected = reference.store_xml(URL, text)
            assert outcome_view(outcome) == outcome_view(expected), where
            for document in (outcome.document, outcome.old_document):
                assert_no_placeholder(document)
        assert observed(repository) == observed(reference), where
        assert_signed_with_own_memo(repository)
        assert_records_hold(repository)


@contextmanager
def splice_log():
    """Each signing parse that got splices, as ``(count, error name or
    None)``, and the bytes each signing parse handed expat."""
    log: List[Tuple[int, object]] = []
    read: List[bytes] = []
    original = parser_module._parse

    def spy(source, memo, splices):
        if memo is not None:
            read.append(source)
        try:
            document = original(source, memo, splices)
        except Exception as exc:
            if splices:
                log.append((len(splices), type(exc).__name__))
            raise
        if splices:
            log.append((len(splices), None))
        return document

    parser_module._parse = spy
    try:
        yield log, read
    finally:
        parser_module._parse = original


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000),
    st.lists(st.sampled_from(EDITS + ACTIONS), min_size=1, max_size=14),
)
def test_splicing_parse_matches_whole_parse(seed, steps):
    check_chain(chain_actions(seed, steps))


def test_every_step_kind_along_long_chains():
    steps = [kind for kind in EDITS + ACTIONS for _ in range(2)] * 2
    with splice_log() as (log, _):
        for seed in range(4):
            order = random.Random(seed).sample(steps, len(steps))
            check_chain(chain_actions(seed, order))
    # Both sides of the proof rule ran: splices that held, and splices
    # expat did not report where they were put.
    assert any(error is None for _, error in log)
    assert any(error == "_Unproven" for _, error in log)
    assert any(error == "XMLSyntaxError" for _, error in log)


@pytest.mark.parametrize(
    "hide",
    [
        "<!-- {} -->",
        "<![CDATA[{}]]>",
        "<?keep {}?>",
        "<box>{}</box>",
        "<box><box>{}</box></box>",
    ],
)
def test_a_record_where_no_child_of_the_root_can_start(hide):
    first = "<r><a>1</a><b><c>2</c></b>text<d k='v'>3</d></r>"
    moved = f"<r><b><c>2</c></b>text{hide.format('<a>1</a>')}<d k='v'>3</d></r>"
    with splice_log() as (log, _):
        check_chain([("xml", first), ("xml", moved), ("xml", first)])
    assert ("_Unproven" in [error for _, error in log]) == (hide.startswith("<"))


def test_records_moved_duplicated_and_reordered():
    records = ["<a>1</a>", "<b><c>2</c><c>3</c></b>", "<d k='v'>4</d>", "<e>é</e>"]
    pages = [
        records,
        records[::-1],
        records + records[:2],
        records[2:] + ["<p/>", "loose"] + records[:2],
        ["<_/>", "<_>x</_>"] + records,
    ]
    with splice_log() as (log, _):
        check_chain([("xml", "<r>" + "".join(page) + "</r>") for page in pages])
    assert [error for _, error in log] == [None] * (len(pages) - 1)


def test_a_restore_then_refetch_splices_from_the_restored_text():
    page = Page(3)
    rng = random.Random(3)
    actions = [("xml", page.text()), ("restore", "")]
    page.edit("change", rng)
    actions += [("xml", page.text()), ("restore", ""), ("xml", page.text())]
    page.edit("insert", rng)
    actions.append(("xml", page.text()))
    with splice_log() as (log, _):
        check_chain(actions)
    # After each restore the next fetch is parsed (the restored version
    # keeps no raw-text hash), refetch included, and every one splices.
    assert [error for _, error in log] == [None, None, None]


# -- the fallback ----------------------------------------------------------------------

LINES = "<r>\n" + "".join(
    f"<item n='{n}'>\n  <v>{n}</v>\n  <w>word {n}</w>\n</item>\n" for n in range(8)
)


def stored_repository(text: str) -> Repository:
    repository = Repository()
    repository.store_xml(URL, text)
    return repository


def test_a_malformed_update_reports_the_error_of_a_whole_parse():
    repository = stored_repository(LINES + "</r>")
    memo = repository._docs[1].memo
    entries, records = memo.entries, memo.records
    assert len(records) == 8
    # Every record is there; the bad bytes lie after them, where the
    # skeleton's line and column would differ.
    bad = LINES + "<oops></r>"
    with pytest.raises(XMLSyntaxError) as plain:
        parse(bad)
    with pytest.raises(XMLSyntaxError) as caught:
        repository.store_xml(URL, bad)
    assert str(caught.value) == str(plain.value)
    assert (caught.value.line, caught.value.column) == (
        plain.value.line,
        plain.value.column,
    )
    assert caught.value.line == 34
    assert memo.entries is entries and memo.records is records


def test_an_added_attlist_default_applies_to_every_record():
    page = "<r><p><b>1</b></p><p><b>2</b></p>text<p><b>3</b></p></r>"
    repository = stored_repository(page)
    with splice_log() as (log, _):
        outcome = repository.store_xml(
            URL, '<!DOCTYPE r [<!ATTLIST p a CDATA "x">]>' + page
        )
    assert log == [(3, "_Unproven")]
    assert outcome.status == DOC_UPDATED
    elements = [n for n in outcome.document.preorder() if isinstance(n, ElementNode)]
    assert [e.attributes for e in elements if e.tag == "p"] == [{"a": "x"}] * 3
    # A page with an internal subset records nothing; without it, the
    # records come back and the default is gone.
    assert repository._docs[1].memo.records == {}
    outcome = repository.store_xml(URL, page)
    assert outcome.status == DOC_UPDATED
    assert len(repository._docs[1].memo.records) == 3
    assert all(
        e.attributes == {} for e in outcome.document.preorder()
        if isinstance(e, ElementNode)
    )


def test_a_page_nested_257_deep_is_still_rejected():
    repository = stored_repository(LINES + "</r>")
    memo = repository._docs[1].memo
    entries, records = memo.entries, memo.records
    deep = LINES + "<x>" * 257 + "</x>" * 257 + "</r>"
    with pytest.raises(XMLSyntaxError) as plain:
        parse(deep)
    with pytest.raises(XMLSyntaxError) as caught:
        repository.store_xml(URL, deep)
    assert str(caught.value) == str(plain.value)
    assert "nested deeper than 256" in str(caught.value)
    assert memo.entries is entries and memo.records is records


# -- what expat reads ---------------------------------------------------------------------


def test_an_update_hands_expat_only_its_changed_record():
    page = SiteGenerator(seed=4).catalog(products=20)
    repository = Repository()
    repository.store_xml(URL, serialize(page))
    price = page.root.children[7].first("price").children[0]
    price.data = "123456.78"
    with splice_log() as (_, read):
        assert repository.store_xml(URL, serialize(page)).status == DOC_UPDATED
    (skeleton,) = read
    # The vendor and 19 unchanged products are placeholders; only the
    # changed product is read.
    assert skeleton.count(b"<_/>") == 20
    assert skeleton.count(b"<Product") == 1 and b"123456.78" in skeleton


def test_an_identical_tree_reads_no_record():
    page = serialize(SiteGenerator(seed=4).catalog(products=5))
    repository = stored_repository(page)
    reformatted = page.replace("<Product", "\n<Product")
    with splice_log() as (_, read):
        assert repository.store_xml(URL, reformatted).status == DOC_UNCHANGED
    (skeleton,) = read
    assert b"<Product" not in skeleton


def test_a_document_input_clears_the_records():
    page = "<r><a><b>1</b></a></r>"
    repository = stored_repository(page)
    assert repository._docs[1].memo.records
    repository.store_xml(URL, parse("<r><a><b>2</b></a></r>"))
    assert repository._docs[1].memo.records == {}
    check_chain([("xml", page), ("restore", ""), ("xml", page.replace("1", "3"))])


def test_non_ascii_and_crlf_records_splice():
    page = "<r>\r\n<a>café\r\nmore</a>\r\n<b t='x\ty'><c>東京</c></b></r>"
    with splice_log() as (log, _):
        check_chain([("xml", page), ("xml", page.replace("<r>", "<r>new<z>1</z>"))])
    assert log == [(2, None)]


@pytest.mark.parametrize(
    "page",
    [
        '<?xml version="1.0" encoding="ISO-8859-1"?><r><a>é</a><b><c>1</c></b></r>',
        '<?xml version="1.0" encoding="UTF-16"?><r><a>東京</a><b><c>1</c></b></r>',
        "﻿<r><a>bom</a><b><c>1</c></b></r>",
        "<r>\r\n<a>x\r\ny\rz</a>\r\n<b t='1\r\n2'><c>1</c></b>\r\n</r>",
        "<r><a>&#233;&#x6771;&lt;&amp;</a><b><c>&#10;</c></b>&#x20;&#65;</r>",
    ],
)
def test_the_signing_parse_reads_the_bytes_as_a_plain_parse_reads_the_text(page):
    signed = parse(page, SignatureMemo())
    plain = parse(page)
    assert serialize(signed) == serialize(plain)
    assert (signed.doctype_name, signed.dtd_url) == (plain.doctype_name, plain.dtd_url)
    changed = page.replace("<b", "<n>new</n><b", 1)
    with splice_log() as (log, _):
        check_chain([("xml", page), ("xml", changed), ("xml", page)])
    assert [error for _, error in log] == [None, None]
