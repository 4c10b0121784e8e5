import pytest

from repro.clock import SimulatedClock
from repro.core.processor import Notification
from repro.errors import SubscriptionError
from repro.language.ast import CountCondition, ReportCondition, SelectSpec
from repro.language.parser import parse_subscription
from repro.reporting import Reporter, ReportRegistration
from repro.subscription.rendering import (
    NotificationBinding,
    compile_template,
    item_event_codes,
)
from repro.xmlstore import parse


def binding(select, item_codes=None):
    """The binding the compiler makes for ``select``, given each item's
    atomic event code."""
    template = None
    if select.template is not None:
        template = compile_template(select.template)
    item_codes = item_codes or {}
    return NotificationBinding(
        subscription_id=1,
        subscription_name="S",
        query_name="Q",
        template=template,
        item_codes=tuple(
            item_codes[item] for item in select.items if item in item_codes
        ),
    )


def render_elements(b, note):
    """Render, then parse each text back into an element."""
    return [parse(text).root for text in b.render(note)]


def notification(data=None, url="http://inria.fr/Xy/index.html"):
    return Notification(
        complex_code=7,
        document_url=url,
        timestamp=990_000_000.0,
        data=data or {},
    )


class TestTemplateRendering:
    def test_url_pseudo_variable_substituted(self):
        spec = SelectSpec(template="<UpdatedPage url=URL/>")
        (element,) = render_elements(binding(spec), notification())
        assert element.tag == "UpdatedPage"
        assert element.attributes["url"] == "http://inria.fr/Xy/index.html"

    def test_date_pseudo_variable(self):
        spec = SelectSpec(template="<Seen at=DATE/>")
        (element,) = render_elements(binding(spec), notification())
        assert element.attributes["at"] == "990000000"

    def test_quoted_attributes_left_alone(self):
        spec = SelectSpec(template='<Tag fixed="constant" url=URL/>')
        (element,) = render_elements(binding(spec), notification())
        assert element.attributes["fixed"] == "constant"

    def test_unknown_variable_becomes_literal(self):
        spec = SelectSpec(template="<Tag x=NOPE/>")
        (element,) = render_elements(binding(spec), notification())
        assert element.attributes["x"] == "NOPE"

    def test_nested_template(self):
        spec = SelectSpec(template="<Outer><Inner url=URL/></Outer>")
        (element,) = render_elements(binding(spec), notification())
        assert element.first("Inner").attributes["url"].startswith("http://")

    def test_rendering_shared_between_buffers(self):
        # One rendering goes to every buffer: reporting one buffer must
        # leave the other's copy, and its report, intact.
        clock = SimulatedClock(1_000_000.0)
        reporter = Reporter(clock=clock)
        for sub_id, threshold in ((1, 1), (2, 2)):
            reporter.register(
                ReportRegistration(
                    subscription_id=sub_id,
                    when=ReportCondition(
                        terms=(CountCondition(threshold=threshold),)
                    ),
                )
            )
        texts = binding(SelectSpec(template="<UpdatedPage url=URL/>")).render(
            notification()
        )
        reporter.deliver(1, "Q", texts)
        reporter.deliver(2, "Q", texts)
        assert reporter.pending_count(1) == 0
        assert reporter.pending_count(2) == 1
        reporter.deliver(2, "Q", texts)
        first = parse(reporter.publisher.fetch(1)).root
        second = parse(reporter.publisher.fetch(2)).root
        assert [e.attributes for e in first.children] == [
            {"url": "http://inria.fr/Xy/index.html"}
        ]
        assert [e.attributes for e in second.children] == [
            {"url": "http://inria.fr/Xy/index.html"}
        ] * 2

    def test_special_characters_escaped(self):
        url = 'http://www.x.example/p?a=1&b=2&c="<d>"\t'
        spec = SelectSpec(template="<UpdatedPage url=URL/>")
        (text,) = binding(spec).render(notification(url=url))
        assert parse(text).root.attributes["url"] == url

    def test_malformed_template_rejected(self):
        with pytest.raises(SubscriptionError):
            compile_template("<Changed url=URL></Other>")

    def test_template_filled_in_document_order(self):
        fill = compile_template("<A url=URL><B at=DATE/></A>")
        assert fill(notification(url="http://u/?a&b")) == (
            '<A url="http://u/?a&amp;b"><B at="990000000"/></A>'
        )

    def test_text_equal_sign_left_alone(self):
        # Only unquoted values inside start tags are attribute values.
        fill = compile_template("<A>a=b</A>")
        assert fill(notification()) == "<A>a=b</A>"

    def test_equal_sign_in_quoted_value_left_alone(self):
        fill = compile_template('<A note="x=y" url=URL/>')
        assert fill(notification(url="http://u/")) == (
            '<A note="x=y" url="http://u/"/>'
        )

    def test_comment_left_alone(self):
        fill = compile_template("<A><!-- <B c=URL> --><C d=URL/></A>")
        assert fill(notification(url="http://u/")) == '<A><C d="http://u/"/></A>'


class TestItemRendering:
    def test_payload_elements_parsed_back(self):
        spec = SelectSpec(items=("X",))
        data = {42: ["<Member><name>preda</name></Member>"]}
        elements = render_elements(binding(spec, {"X": 42}), notification(data))
        assert len(elements) == 1
        assert elements[0].first("name").text_content() == "preda"

    def test_multiple_payload_elements(self):
        spec = SelectSpec(items=("X",))
        data = {42: ["<m>1</m>", "<m>2</m>"]}
        elements = render_elements(binding(spec, {"X": 42}), notification(data))
        assert [e.text_content() for e in elements] == ["1", "2"]

    def test_missing_payload_falls_back_to_default(self):
        spec = SelectSpec(items=("X",))
        elements = render_elements(binding(spec, {"X": 42}), notification({}))
        assert elements[0].tag == "Notification"
        assert elements[0].attributes["query"] == "Q"

    def test_payload_carried_byte_for_byte(self):
        spec = SelectSpec(items=("X",))
        payload = '<Member a="x &amp; &quot;y&quot;">b &lt; c</Member>'
        (text,) = binding(spec, {"X": 42}).render(notification({42: [payload]}))
        assert text is payload


class TestDefaultRendering:
    def test_default_notification_shape(self):
        (element,) = render_elements(binding(SelectSpec()), notification())
        assert element.tag == "Notification"
        assert element.attributes["url"] == "http://inria.fr/Xy/index.html"
        assert element.attributes["query"] == "Q"
        assert element.attributes["date"] == "990000000"

    def test_default_notification_text(self):
        (text,) = binding(SelectSpec()).render(notification(url="http://u/?a&b"))
        assert text == (
            '<Notification query="Q" url="http://u/?a&amp;b" date="990000000"/>'
        )


class TestItemEventCodes:
    def parse_query(self, text):
        return parse_subscription(text).monitoring[0]

    def test_direct_variable_target(self):
        query = self.parse_query(
            "subscription S\nmonitoring\nselect X\nfrom self//Member X\n"
            'where URL = "http://u/" and new X\nreport when immediate'
        )
        mapping = item_event_codes(query, [100, 200])
        assert mapping == {"X": 200}

    def test_tag_target_resolved_through_binding(self):
        query = self.parse_query(
            "subscription S\nmonitoring\nselect X\nfrom self//Product X\n"
            'where URL = "http://u/" and new Product contains "camera"\n'
            "report when immediate"
        )
        mapping = item_event_codes(query, [100, 200])
        assert mapping == {"X": 200}

    def test_unrelated_item_unmapped(self):
        query = self.parse_query(
            "subscription S\nmonitoring\nselect X\nfrom self//Member X\n"
            'where URL = "http://u/"\nreport when immediate'
        )
        assert item_event_codes(query, [100]) == {}
