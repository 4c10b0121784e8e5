"""Pathological pages between two valid versions of one URL.

A valid v1, then hostile or odd pages, then a valid v2 go through
``run_stream`` as one stream for one URL.  Each page is either stored or
counted in ``documents_rejected``; the stream never aborts; and v2's delta
equals the one a fresh repository computes over the pages that were
stored.  For every page the parser rejects, that is the plain v1 -> v2
delta: a rejected page leaves the stored version, and the subtrees the
next version takes over from it, untouched.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.pipeline import Fetch, SubscriptionSystem
from repro.repository import Repository
from repro.webworld import ChangeModel, SiteGenerator
from repro.xmlstore import serialize

URL = "http://www.shop.example/catalog.xml"

_LAUGHS = "".join(
    f'<!ENTITY lol{level} "{("&lol%d;" % (level - 1)) * 10}">'
    for level in range(1, 10)
)
#: Pages the parser must reject.
HOSTILE = {
    "entity declaration": (
        '<!DOCTYPE catalog [<!ENTITY e "x">]><catalog>&e;</catalog>'
    ),
    "billion laughs": (
        '<?xml version="1.0"?><!DOCTYPE catalog [<!ENTITY lol0 "lol">'
        + _LAUGHS
        + "]><catalog>&lol9;</catalog>"
    ),
    "undeclared entity": (
        '<!DOCTYPE catalog SYSTEM "http://d/c.dtd">'
        "<catalog><vendor>&nope;</vendor></catalog>"
    ),
    "300-deep nesting": (
        "<catalog>" + "<n>" * 300 + "x" + "</n>" * 300 + "</catalog>"
    ),
    "unclosed CDATA": "<catalog><vendor><![CDATA[abc</vendor></catalog>",
    "NUL reference": "<catalog><vendor>&#0;</vendor></catalog>",
}


def versions():
    page = SiteGenerator(seed=9).catalog(products=5)
    v2 = ChangeModel(seed=9).mutate(page)
    return serialize(page), serialize(v2)


def odd_pages(v1):
    """Well-formed but odd pages: may be stored."""
    body = v1[v1.index("<catalog>") :]
    return {
        "1 MB attribute": (
            '<catalog note="' + "x" * (1 << 20) + '"' + body[len("<catalog") :]
        ),
        "non-UTF-8 encoding declaration": (
            '<?xml version="1.0" encoding="ISO-8859-1"?>'
            + body.replace("</catalog>", "<vendor>café</vendor></catalog>")
        ),
    }


def run(pages):
    """Feed ``pages`` for URL as one stream; returns the outcomes of the
    pages stored, those pages, in order, and the system."""
    system = SubscriptionSystem(
        clock=SimulatedClock(1_000_000.0), batch_size=3
    )
    system.subscribe(
        "subscription S\nmonitoring M\nselect <Hit url=URL/>\n"
        'where URL extends "http://www.shop.example/"\n  and modified self\n'
        "report when immediate",
        owner_email="probe@example.org",
    )
    stored = []
    store_xml = system.repository.store_xml

    def spy(url, content):
        outcome = store_xml(url, content)
        stored.append(content)
        return outcome

    system.repository.store_xml = spy
    results = system.run_stream(Fetch(url=URL, content=page) for page in pages)
    outcomes = [result.outcome for result in results]
    assert len(outcomes) == len(stored) == system.documents_fed
    assert len(outcomes) + system.documents_rejected == len(pages)
    return outcomes, stored, system


def reference_delta(stored):
    repository = Repository(clock=SimulatedClock(1_000_000.0))
    for text in stored:
        outcome = repository.store_xml(URL, text)
    return outcome.delta


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_a_rejected_page_leaves_v1_for_v2_to_diff(name):
    v1, v2 = versions()
    outcomes, stored, system = run([v1, HOSTILE[name], v2])
    assert system.documents_rejected == 1
    assert stored == [v1, v2]
    assert outcomes[-1].delta.to_xml() == reference_delta([v1, v2]).to_xml()
    assert outcomes[-1].meta.version == 2


@pytest.mark.parametrize(
    "name", ["1 MB attribute", "non-UTF-8 encoding declaration"]
)
def test_an_odd_page_is_stored_or_rejected(name):
    v1, v2 = versions()
    page = odd_pages(v1)[name]
    outcomes, stored, system = run([v1, page, v2])
    assert stored in ([v1, page, v2], [v1, v2])
    assert outcomes[-1].delta.to_xml() == reference_delta(stored).to_xml()


def test_every_page_in_one_stream():
    v1, v2 = versions()
    pages = [v1, *HOSTILE.values(), *odd_pages(v1).values(), v2]
    outcomes, stored, system = run(pages)
    assert system.documents_rejected >= len(HOSTILE)
    assert stored[0] == v1 and stored[-1] == v2
    assert outcomes[-1].delta.to_xml() == reference_delta(stored).to_xml()
    current = system.repository.document_for_url(URL)
    assert serialize(current) == serialize(outcomes[-1].document)
