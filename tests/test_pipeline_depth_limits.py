"""The loader's size limits, end to end.

Signing, XID propagation and the matcher recurse once or twice per level
of a page, so they rely on the parser's :data:`MAX_DEPTH`: a page exactly
that deep must go through the whole system (stored, updated, notified),
and one level more must be rejected without stopping the stream.  A child
list past ``_LCS_CELL_LIMIT`` cells must take the greedy alignment.
"""

import repro.diff.matching as matching
from repro.pipeline import Fetch, SubscriptionSystem
from repro.xmlstore.parser import MAX_DEPTH

DEEP_URL = "http://deep.example/p.xml"
WIDE_URL = "http://wide.example/p.xml"


def nested(depth, word):
    return "<n>" * depth + word + "</n>" * depth


def subscribe(system, tag, word, prefix):
    system.subscribe(
        f"""
        subscription S
        monitoring M
        select <Hit url=URL/>
        where URL extends "{prefix}"
          and updated {tag} contains "{word}"
        report when immediate
        """,
        owner_email="u@x",
    )


def test_page_at_max_depth_is_stored_updated_and_notifies(system, clock):
    subscribe(system, "n", "two", "http://deep.example/")
    first = system.feed_xml(DEEP_URL, nested(MAX_DEPTH, "one"))
    assert first.outcome.status == "new"
    assert first.notifications == []
    clock.advance(60)
    second = system.feed_xml(DEEP_URL, nested(MAX_DEPTH, "two"))
    assert second.outcome.status == "updated"
    assert len(second.outcome.delta.text_updates) == 1
    assert len(second.notifications) == 1
    document = system.repository.document_for_url(DEEP_URL)
    assert document.depth() == MAX_DEPTH
    assert [node.xid for node in document.preorder()] == [
        node.xid for node in second.outcome.document.preorder()
    ]


def test_page_past_max_depth_is_rejected_and_the_stream_goes_on(system):
    results = system.run_stream(
        [
            Fetch(DEEP_URL, nested(MAX_DEPTH + 1, "one")),
            Fetch("http://ok.example/a.xml", "<r>first</r>"),
        ]
    )
    assert system.documents_rejected == 1
    assert system.documents_fed == 1
    assert [result.outcome.meta.url for result in results] == [
        "http://ok.example/a.xml"
    ]
    assert not system.repository.has_url(DEEP_URL)


def test_wide_page_changed_in_place_takes_the_greedy_alignment(
    system, clock, monkeypatch
):
    count = 1_001
    assert count * count > matching._LCS_CELL_LIMIT
    subscribe(system, "i", "changed", "http://wide.example/")
    items = [f"<i>item {k}</i>" for k in range(count)]
    system.feed_xml(WIDE_URL, "<r>" + "".join(items) + "</r>")
    clock.advance(60)
    for k in (3, 500, 1_000):
        items[k] = f"<i>changed {k}</i>"
    greedy_calls = []
    original = matching._greedy_pairs
    monkeypatch.setattr(
        matching,
        "_greedy_pairs",
        lambda left, right: greedy_calls.append(len(left)) or original(left, right),
    )
    result = system.feed_xml(WIDE_URL, "<r>" + "".join(items) + "</r>")
    assert greedy_calls == [count]
    delta = result.outcome.delta
    assert not delta.inserts and not delta.deletes
    assert sorted(update.new_text for update in delta.text_updates) == [
        "changed 1000",
        "changed 3",
        "changed 500",
    ]
    assert len(result.notifications) == 1
