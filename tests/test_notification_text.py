"""Notifications travel as serialized XML text from the alerter to the sinks.

* Regressions: a page URL with ``&``, ``"`` or ``<`` is escaped into a
  template notification instead of rejecting the page; a template that is
  not well-formed XML fails at subscribe time and registers nothing.
* Oracle: every alerter payload round-trips, ``serialize(parse(s)) == s``,
  so carrying the text unparsed loses nothing.
* Differential: a test-local copy of the old tree path (render to
  elements, hash ``serialize(element)``, assemble a ``<Report>`` tree and
  serialize it) yields byte-identical delivery ids and report bodies on
  seeded worlds.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.errors import ReportingError, SubscriptionError
from repro.language.parser import parse_subscription
from repro.minisql import Database
from repro.pipeline import Fetch, SubscriptionSystem
from repro.repository.semantics import SemanticClassifier
from repro.subscription.manager import SubscriptionManager
from repro.webworld import ChangeModel, SimulatedCrawler, SiteGenerator
from repro.xmlstore import parse, serialize
from repro.xmlstore.nodes import Document, ElementNode, TextNode

START = 990_000_000.0


# ---------------------------------------------------------------------------
# Regressions
# ---------------------------------------------------------------------------

TEMPLATE_SOURCE = (
    "subscription Pages\n"
    "monitoring Changed\n"
    "select <Changed url=URL/>\n"
    'where URL extends "http://www.x.example/"\n'
    "report when immediate\n"
)


class TestSpecialCharacters:
    @pytest.mark.parametrize(
        "url",
        [
            "http://www.x.example/p?a=1&b=2",
            'http://www.x.example/q?"quoted"',
            "http://www.x.example/r?<tag>",
        ],
    )
    def test_url_escaped_into_template_notification(self, url):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        sub_id = system.subscribe(TEMPLATE_SOURCE, owner_email="u@x")
        system.run_stream([Fetch(url=url, content="<r>page</r>")])
        assert system.documents_rejected == 0
        report = parse(system.publisher.fetch(sub_id)).root
        (changed,) = report.children
        assert changed.attributes["url"] == url


class TestMalformedTemplate:
    SOURCE = TEMPLATE_SOURCE.replace(
        "<Changed url=URL/>", "<Changed url=URL></Other>"
    )

    def test_subscribe_rejects_and_registers_nothing(self):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        with pytest.raises(SubscriptionError):
            system.subscribe(self.SOURCE, owner_email="u@x")
        assert list(system.manager.database.table("subscriptions").rows()) == []
        assert system.manager.count() == 0
        registry = system.processor.registry
        assert registry.complex_count() == 0
        assert registry.atomic_count() == 0

    def test_update_keeps_the_old_definition(self):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        sub_id = system.subscribe(TEMPLATE_SOURCE, owner_email="u@x")
        with pytest.raises(SubscriptionError):
            system.manager.update_subscription(sub_id, self.SOURCE)
        system.run_stream(
            [Fetch(url="http://www.x.example/a", content="<r>page</r>")]
        )
        assert system.documents_rejected == 0
        assert system.publisher.count(sub_id) == 1

    def test_recover_skips_a_stored_malformed_row(self):
        # A store written when subscribe still accepted such a template.
        database = Database()
        SubscriptionSystem(clock=SimulatedClock(START), database=database)
        rows = database.table("subscriptions")
        for sub_id, source in ((1, self.SOURCE), (2, TEMPLATE_SOURCE)):
            rows.insert({
                "id": sub_id, "name": f"Pages{sub_id}", "owner_email": "u@x",
                "recipients": "", "privileged": False, "active": True,
                "source": source.replace("Pages", f"Pages{sub_id}"),
            })
        system = SubscriptionSystem(
            clock=SimulatedClock(START), database=database
        )
        assert system.manager.recover() == 1
        assert list(system.manager.unrecovered) == [1]
        assert system.manager.was_removed(1)
        system.run_stream(
            [Fetch(url="http://www.x.example/a", content="<r>page</r>")]
        )
        assert system.documents_rejected == 0
        assert system.publisher.count(2) == 1

    def test_shared_template_compiled_once(self):
        system = SubscriptionSystem(clock=SimulatedClock(START))
        ids = [
            system.subscribe(
                TEMPLATE_SOURCE.replace("Pages", f"Pages{n}"),
                owner_email="u@x",
            )
            for n in range(3)
        ]
        templates = {
            id(binding.template)
            for sub_id in ids
            for binding in system.manager.subscription(sub_id).bindings.values()
        }
        assert len(templates) == 1


# ---------------------------------------------------------------------------
# Oracle: alerter payloads round-trip
# ---------------------------------------------------------------------------

ITEM_SOURCE = (
    "subscription Items\n"
    "monitoring New\nselect X\nfrom self//Product X\n"
    'where URL extends "http://www.shop"\n  and new Product\n'
    "monitoring Updated\nselect X\nfrom self//Product X\n"
    'where URL extends "http://www.shop"\n  and updated Product\n'
    "monitoring Deleted\nselect X\nfrom self//Product X\n"
    'where URL extends "http://www.shop"\n  and deleted Product\n'
    "report when count >= 5\n"
)

#: Text the generated catalogs are salted with.
salt = st.text(
    alphabet=st.sampled_from(list("ab &<>\"'\t\n\r")), min_size=1, max_size=8
)


def salted_catalog(seed, salts):
    """A generated catalog with ``salts`` spliced into texts and
    attributes, in turn."""
    document = SiteGenerator(seed=seed).catalog(products=4)
    elements = [
        node for node in document.preorder() if isinstance(node, ElementNode)
    ]
    texts = [node for node in document.preorder() if isinstance(node, TextNode)]
    for index, value in enumerate(salts):
        if index % 2:
            element = elements[index % len(elements)]
            element.attributes[f"s{index}"] = value
        else:
            text = texts[index % len(texts)]
            text.data = f"{text.data}{value}"
    return document


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    salts=st.lists(salt, min_size=1, max_size=8),
    rounds=st.integers(1, 4),
)
def test_alerter_payloads_round_trip(seed, salts, rounds):
    system = SubscriptionSystem(clock=SimulatedClock(START))
    system.subscribe(ITEM_SOURCE, owner_email="u@x")
    payloads = []
    process_alert = system.processor.process_alert

    def spy(alert):
        for texts in alert.data.values():
            payloads.extend(texts)
        return process_alert(alert)

    system.processor.process_alert = spy
    model = ChangeModel(seed=seed + 1)
    document = salted_catalog(seed, salts)
    url = "http://www.shop0.example/catalog.xml"
    for _ in range(rounds + 1):
        system.run_stream([Fetch(url=url, content=serialize(document))])
        system.clock.advance(3600)
        document = model.mutate(document)
    assert system.documents_rejected == 0
    assert payloads
    for text in payloads:
        assert serialize(parse(text)) == text


# ---------------------------------------------------------------------------
# Differential: the old tree path as a reference
# ---------------------------------------------------------------------------

_UNQUOTED_ATTR_RE = re.compile(r"=\s*([A-Za-z_][A-Za-z0-9_]*)")


def select_spec(compiled, binding):
    """The ``select`` clause of ``binding``'s query, from the source."""
    subscription = parse_subscription(compiled.source_text)
    for index, query in enumerate(subscription.monitoring):
        if (query.name or f"Q{index + 1}") == binding.query_name:
            return query.select
    raise AssertionError(binding.query_name)


def tree_render(select, binding, notification):
    """The tree rendering notifications had before they became text.
    Item codes are mapped by the compiler, as they were then."""
    if select.template is not None:
        values = {
            "URL": notification.document_url,
            "DATE": f"{notification.timestamp:.0f}",
        }
        quoted = _UNQUOTED_ATTR_RE.sub(
            lambda m: f'="{values.get(m.group(1), m.group(1))}"',
            select.template,
        )
        return [parse(quoted).root]
    elements = []
    for code in binding.item_codes:
        for payload in notification.data.get(code, []):
            elements.append(parse(payload).root)
    if elements:
        return elements
    return [
        ElementNode(
            "Notification",
            {
                "query": binding.query_name,
                "url": notification.document_url,
                "date": f"{notification.timestamp:.0f}",
            },
        )
    ]


def deliver(reporter, subscription_id, query_name, elements):
    try:
        reporter.deliver(subscription_id, query_name, elements)
    except ReportingError:
        pass


def tree_handle_notifications(self, batch):
    """The routing notifications had before they became text: a fresh
    rendering for every buffer, because report assembly reparents."""
    reporter = self.compiler.reporter
    seen_bindings = set()
    for notification in batch:
        owner_id = self._code_owner.get(notification.complex_code)
        if owner_id is None:
            continue
        compiled = self._subscriptions.get(owner_id)
        if compiled is None or not compiled.active:
            continue
        binding = compiled.bindings.get(notification.complex_code)
        if binding is None or id(binding) in seen_bindings:
            continue
        seen_bindings.add(id(binding))
        select = select_spec(compiled, binding)
        deliver(
            reporter, owner_id, binding.query_name,
            tree_render(select, binding, notification),
        )
        for target_id in self._virtual_targets(
            binding.subscription_name, binding.query_name
        ):
            target = self._subscriptions.get(target_id)
            if target is not None and target.active:
                deliver(
                    reporter, target_id, binding.query_name,
                    tree_render(select, binding, notification),
                )
        self.compiler.trigger_engine.notification_received(
            binding.subscription_name, binding.query_name
        )


def install_tree_path(system, manager):
    """Route ``system`` through the tree path: buffers hold elements, a
    report is a ``<Report>`` tree serialized whole, the delivery id
    hashes ``serialize(element)``."""
    reporter = system.reporter

    def generate_report(buffer, now):
        registration = buffer.registration
        root = ElementNode(registration.report_name)
        for element in buffer.notifications:
            root.append(element)
        document = Document(root)
        if registration.report_query is not None:
            document = reporter.report_query_runner(
                registration.report_query, document
            )
        body = serialize(document)
        for recipient in registration.recipients:
            reporter.email_sink.send(
                recipient,
                subject=f"[Xyleme] report for subscription"
                f" {registration.subscription_id}",
                body=body,
            )
        reporter.publisher.publish(registration.subscription_id, body)
        buffer.notifications = []
        buffer.suppressed = 0
        buffer.state.reset_after_report(now)
        buffer.last_delivery_at = now
        buffer.pending_rate_limited = False

    def delivery_id(subscription_id, query_name, elements):
        now = system.clock.now()
        if now != manager.occurrences_at:
            manager.occurrences = {}
            manager.occurrences_at = now
        payload = json.dumps(
            [
                subscription_id,
                query_name,
                [serialize(element) for element in elements],
                now,
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()
        occurrence = manager.occurrences.get(digest, 0) + 1
        manager.occurrences[digest] = occurrence
        return f"{digest}:{occurrence}"

    reporter._generate_report = generate_report
    system.trigger_engine.deliver = partial(deliver, reporter)
    manager._delivery_id = delivery_id


DIFFERENTIAL_SOURCES = [
    # template notifications, with both pseudo variables and a literal
    "subscription Tpl\nmonitoring Changed\n"
    'select <T fixed="k" url=URL at=DATE other=NOPE><In url=URL/></T>\n'
    'where URL extends "http://www.shop"\n  and modified self\n'
    "report when count >= 3\n",
    # items
    "subscription Items\nmonitoring Added\nselect X\nfrom self//Product X\n"
    'where URL extends "http://www.shop"\n  and new Product\n'
    "monitoring Changed\nselect X\nfrom self//Product X\n"
    'where URL extends "http://www.shop"\n  and updated Product\n'
    "report when count >= 2\n",
    # default notifications (the item is bound to no condition)
    "subscription Dflt\nmonitoring Any\nselect X\nfrom self//Member X\n"
    'where URL extends "http://www.shop"\n  and modified self\n'
    "report when daily\n",
    # a report query over item notifications
    "subscription Query\nmonitoring Added\nselect X\nfrom self//Product X\n"
    'where URL extends "http://www.shop"\n  and new Product\n'
    "report\nselect p/name from Report/Product p\nwhen count >= 2\n",
    # virtual subscribers of the template and item subscriptions
    "subscription VTpl\nvirtual Tpl.Changed\nreport when immediate\n",
    "subscription VItems\nvirtual Items\nreport when count >= 4\n",
    # trigger deliveries: full answers, deltas, and one under a report query
    "subscription Paint\ncontinuous Paintings\n"
    "select p/title from culture/museum m, m/painting p\n"
    'where m/address contains "Amsterdam"\ntry daily\n'
    "report when immediate\n",
    "subscription PaintDelta\ncontinuous delta Paintings\n"
    "select p from culture/museum m, m/painting p\n"
    'where m/address contains "Amsterdam"\ntry daily\n'
    "report when immediate\n",
    "subscription PaintQuery\ncontinuous Paintings\n"
    "select p from culture/museum m, m/painting p\n"
    'where m/address contains "Amsterdam"\ntry daily\n'
    "report\nselect t from Report/Paintings/painting/title t\n"
    "when count >= 2\n",
]


def run_world(seed, tmp_path, tree_path):
    clock = SimulatedClock(START)
    classifier = SemanticClassifier()
    classifier.add_rule("culture", ["museum", "painting"])
    system = SubscriptionSystem(clock=clock, classifier=classifier)
    crawler = SimulatedCrawler(
        clock=clock, change_model=ChangeModel(seed=seed + 1), seed=seed + 2
    )
    generator = SiteGenerator(seed=seed)
    for i in range(3):
        crawler.add_xml_page(
            f"http://www.shop{i}.example/catalog.xml",
            generator.catalog(products=5),
            change_probability=0.8,
        )
    for i in range(2):
        crawler.add_xml_page(
            f"http://museum{i}.example/collection.xml",
            generator.museum(paintings=3, city="Amsterdam"),
            change_probability=0.8,
        )
    for source in DIFFERENTIAL_SOURCES:
        system.subscribe(source, owner_email="u@example.org")
    manager = system.enable_recovery(
        str(tmp_path / ("tree" if tree_path else "text")),
        checkpoint_every=10**9,
    )
    if tree_path:
        install_tree_path(system, manager)
    ids = []
    append = manager.journal.append_delivery

    def record(delivery_id, *rest):
        ids.append(delivery_id)
        append(delivery_id, *rest)

    manager.journal.append_delivery = record
    for _ in range(4 * 24):
        system.run_stream(crawler.due_fetches())
        system.advance_time(3600)
    manager.close()
    sent = [(e.recipient, e.subject, e.body) for e in system.email_sink.sent]
    return ids, sent, system


@pytest.mark.parametrize("seed", [3, 17])
def test_text_path_matches_tree_path(seed, tmp_path, monkeypatch):
    ids, sent, system = run_world(seed, tmp_path, tree_path=False)
    with monkeypatch.context() as patch:
        patch.setattr(
            SubscriptionManager, "handle_notifications",
            tree_handle_notifications,
        )
        tree_ids, tree_sent, _ = run_world(seed, tmp_path, tree_path=True)
    assert system.documents_rejected == 0
    assert system.trigger_engine.stats.notifications_emitted > 0
    subjects = {subject for _, subject, _ in sent}
    # every subscription reported at least once
    assert len(subjects) == len(DIFFERENTIAL_SOURCES)
    assert ids == tree_ids
    assert sent == tree_sent
