"""The other callers of ``compute_delta``: a ``continuous delta`` query
and the query-answer store.

Each diff moves the previous answer's unchanged subtrees into the new
one.  Here a delta query is evaluated three times over a changing
warehouse, with an answer store attached.  Every delivered delta, every
retained ``QueryAnswerStore.version()`` and every ``diff()`` between two
retained versions must equal a reference computed on independent copies
(fresh parses of the answers' texts, diffed by the copying matcher of
``test_diff_takeover_oracle``), and a ``diff()`` call must leave later
``version()`` and ``latest()`` results unchanged.
"""

from __future__ import annotations

from itertools import combinations

from repro.clock import SECONDS_PER_WEEK
from repro.diff import XidSpace, copy_document
from repro.language.ast import ContinuousQuery
from repro.query import QueryEngine
from repro.triggers import QueryAnswerStore, TriggerEngine
from repro.xmlstore import parse, serialize

from .test_diff_takeover_oracle import reference_compute_delta

MUSEUM = "http://rijks.nl/c.xml"
QUERY = (
    "select p from culture/museum m, m/painting p"
    ' where m/address contains "Amsterdam"'
)
VERSIONS = [
    "<museum><address>Amsterdam</address>"
    "<painting><title>Night Watch</title><year>1642</year></painting>"
    "<painting><title>Milkmaid</title><year>1658</year></painting></museum>",
    "<museum><address>Amsterdam</address>"
    "<painting><title>Night Watch</title><year>1642</year></painting>"
    "<painting><title>Milkmaid</title><year>1660</year></painting>"
    "<painting><title>Jewish Bride</title><year>1665</year></painting>"
    "</museum>",
    "<museum><address>Amsterdam</address>"
    "<painting><title>Jewish Bride</title><year>1665</year></painting>"
    "<painting><title>Night Watch</title><year>1642</year></painting>"
    "</museum>",
]


def reference_diff(older_text, newer_text):
    """The delta between two answers' texts on fresh parses, the older
    one numbered from XID 1 as ``QueryAnswerStore.diff`` numbers it."""
    older = parse(older_text)
    space = XidSpace()
    space.assign_fresh(older.root)
    return reference_compute_delta(older, parse(newer_text), space, [])


def test_delta_query_and_answer_store_match_independent_copies(
    repository, clock
):
    deliveries = []
    engine = TriggerEngine(
        query_engine=QueryEngine(repository),
        deliver=lambda sub, name, elements: deliveries.append(
            [serialize(element) for element in elements]
        ),
        clock=clock,
    )
    store = engine.answer_store
    engine.register(
        1,
        "S",
        ContinuousQuery(
            name="Paintings", query_text=QUERY, delta=True, frequency="weekly"
        ),
    )
    answers = []
    for version in VERSIONS:
        repository.store_xml(MUSEUM, version)
        answers.append(
            QueryEngine(repository).evaluate(QUERY, name="Paintings").to_xml()
        )
        clock.advance(SECONDS_PER_WEEK)
        assert engine.tick() == 1
    assert len(set(answers)) == 3

    # The engine's deltas, against a reference chain of fresh parses.
    assert deliveries[0] == [answers[0]]
    space = XidSpace()
    previous = parse(answers[0])
    space.assign_fresh(previous.root)
    for number in (1, 2):
        current = parse(answers[number])
        delta = reference_compute_delta(
            copy_document(previous), current, space, []
        )
        expected = serialize(delta.to_element(name="Paintings-delta"))
        assert deliveries[number] == [expected]
        previous = current

    # The answer store: every retained version, and every diff.
    assert store.retained_versions(1, "Paintings") == [3, 2, 1]
    for number, answer in enumerate(answers, start=1):
        assert serialize(store.version(1, "Paintings", number)) == answer
    before = {
        number: copy_document(store.version(1, "Paintings", number))
        for number in (1, 2, 3)
    }
    latest = copy_document(store.latest(1, "Paintings"))
    for first, second in combinations((1, 2, 3), 2):
        for older, newer in ((first, second), (second, first)):
            delta = store.diff(1, "Paintings", older, newer)
            expected = reference_diff(answers[older - 1], answers[newer - 1])
            assert delta.to_xml() == expected.to_xml()
            for number, kept in before.items():
                again = store.version(1, "Paintings", number)
                assert serialize(again) == serialize(kept)
                assert [n.xid for n in again.preorder()] == [
                    n.xid for n in kept.preorder()
                ]
            again = store.latest(1, "Paintings")
            assert serialize(again) == serialize(latest)
            assert [n.xid for n in again.preorder()] == [
                n.xid for n in latest.preorder()
            ]


def test_unchanged_answer_keeps_a_sound_stored_answer():
    store = QueryAnswerStore()
    text = "<Q><t>a</t><t>b</t></Q>"
    store.record(1, "Q", parse(text))
    for _ in range(3):
        version, delta = store.record(1, "Q", parse(text))
        assert version == 1 and not delta
    current = store._chains[(1, "Q")].current
    for node in current.preorder():
        assert node.root() is current.root
    version, delta = store.record(1, "Q", parse("<Q><t>a</t><t>c</t></Q>"))
    assert version == 2 and len(delta.text_updates) == 1
    assert serialize(store.version(1, "Q", 1)) == text
