import pytest

from repro.errors import SubscriptionSyntaxError
from repro.language import parse_subscription
from repro.language.ast import (
    CountCondition,
    ImmediateCondition,
    KIND_NEW,
    KIND_UPDATED,
    PeriodicCondition,
)

PAPER_SUBSCRIPTION = """
subscription MyXyleme

monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/"
  and modified self

monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml"
  and new X

continuous ReferenceXyleme
select s/url from refs/site s where s contains "xyleme"
try biweekly

refresh "http://inria.fr/Xy/members.xml" weekly

report
when notifications.count > 100
"""


class TestPaperExample:
    def test_parses_fully(self):
        subscription = parse_subscription(PAPER_SUBSCRIPTION)
        assert subscription.name == "MyXyleme"
        assert len(subscription.monitoring) == 2
        assert len(subscription.continuous) == 1
        assert len(subscription.refreshes) == 1
        assert subscription.report is not None

    def test_first_monitoring_query(self):
        subscription = parse_subscription(PAPER_SUBSCRIPTION)
        query = subscription.monitoring[0]
        assert query.select.template == "<UpdatedPage url=URL/>"
        url_condition, status_condition = query.conditions
        assert url_condition.kind == "url_extends"
        assert url_condition.string == "http://inria.fr/Xy/"
        # "modified" is the paper's synonym for updated.
        assert status_condition.change_kind == KIND_UPDATED

    def test_second_monitoring_query(self):
        subscription = parse_subscription(PAPER_SUBSCRIPTION)
        query = subscription.monitoring[1]
        assert query.select.items == ("X",)
        assert query.from_bindings[0].path == "self//Member"
        assert query.from_bindings[0].variable == "X"
        element = query.conditions[1]
        assert element.kind == "element"
        assert element.change_kind == KIND_NEW
        assert element.target == "X"

    def test_continuous_query(self):
        subscription = parse_subscription(PAPER_SUBSCRIPTION)
        continuous = subscription.continuous[0]
        assert continuous.name == "ReferenceXyleme"
        assert continuous.frequency == "biweekly"
        assert continuous.query_text.startswith("select s/url")
        assert "when" not in continuous.query_text

    def test_report_condition_threshold(self):
        subscription = parse_subscription(PAPER_SUBSCRIPTION)
        (term,) = subscription.report.when.terms
        assert isinstance(term, CountCondition)
        assert term.threshold == 101  # "count > 100"

    def test_refresh(self):
        subscription = parse_subscription(PAPER_SUBSCRIPTION)
        refresh = subscription.refreshes[0]
        assert refresh.url == "http://inria.fr/Xy/members.xml"
        assert refresh.frequency == "weekly"


class TestNotificationTrigger:
    def test_competitors_example(self):
        subscription = parse_subscription(
            """
            subscription XylemeCompetitors
            monitoring ChangeInMyProducts
            select <ChangeInMyProducts/>
            where URL = "http://www.xyleme.com/products.xml"
              and modified self
            continuous MyCompetitors
            select c/name from business/company c where c contains "xml"
            when XylemeCompetitors.ChangeInMyProducts
            report when immediate
            """
        )
        trigger = subscription.continuous[0].trigger
        assert trigger.subscription == "XylemeCompetitors"
        assert trigger.query == "ChangeInMyProducts"
        assert subscription.monitoring[0].name == "ChangeInMyProducts"


class TestConditions:
    def parse_condition(self, text):
        subscription = parse_subscription(
            f"subscription T\nmonitoring\nselect X\nfrom self//a X\n"
            f"where {text}\nreport when immediate"
        )
        return subscription.monitoring[0].conditions[0]

    def test_url_eq(self):
        condition = self.parse_condition('URL = "http://a/"')
        assert condition.kind == "url_eq"

    def test_filename(self):
        condition = self.parse_condition('filename = "index.html"')
        assert condition.kind == "filename_eq"
        assert condition.string == "index.html"

    def test_dtd_and_ids(self):
        assert self.parse_condition('DTD = "http://d/c.dtd"').kind == "dtd_eq"
        assert self.parse_condition("DTDID = 7").number == 7
        assert self.parse_condition("DOCID = 12").kind == "docid_eq"

    def test_domain(self):
        condition = self.parse_condition('domain = "biology"')
        assert condition.kind == "domain_eq"

    def test_dates(self):
        condition = self.parse_condition('LastUpdate >= "2001-05-21"')
        assert condition.kind == "last_update"
        assert condition.comparator == ">="
        assert condition.number == 990403200.0  # 2001-05-21 UTC

    def test_date_as_epoch_number(self):
        condition = self.parse_condition("LastAccessed < 1000000")
        assert condition.number == 1000000.0

    def test_self_contains(self):
        condition = self.parse_condition('self contains "camera"')
        assert condition.kind == "self_contains"

    def test_element_with_contains(self):
        condition = self.parse_condition('updated Product contains "camera"')
        assert condition.kind == "element"
        assert condition.change_kind == "updated"
        assert condition.string == "camera"
        assert not condition.strict

    def test_element_strict_contains(self):
        condition = self.parse_condition(
            'category strict contains "hi-fi"'
        )
        assert condition.strict
        assert condition.change_kind is None

    def test_bare_element_presence(self):
        condition = self.parse_condition("Product")
        assert condition.kind == "element"
        assert condition.change_kind is None
        assert condition.string is None

    def test_deleted_element(self):
        condition = self.parse_condition("deleted Product")
        assert condition.change_kind == "deleted"


class TestReportClauses:
    def parse_report(self, text):
        return parse_subscription(
            f"subscription T\nmonitoring\nselect X\nfrom self//a X\n"
            f'where URL = "http://u/"\nreport {text}'
        ).report

    def test_immediate(self):
        (term,) = self.parse_report("when immediate").when.terms
        assert isinstance(term, ImmediateCondition)

    def test_periodic(self):
        (term,) = self.parse_report("when weekly").when.terms
        assert isinstance(term, PeriodicCondition)
        assert term.frequency == "weekly"

    def test_count_named_query(self):
        (term,) = self.parse_report("when count(UpdatedPage) >= 10").when.terms
        assert term.query_name == "UpdatedPage"
        assert term.threshold == 10

    def test_bare_query_name_count(self):
        (term,) = self.parse_report("when UpdatedPage >= 10").when.terms
        assert term.query_name == "UpdatedPage"

    def test_disjunction(self):
        report = self.parse_report("when weekly or count >= 500")
        assert len(report.when.terms) == 2

    def test_atmost_count_and_frequency(self):
        report = self.parse_report("when immediate atmost 500 atmost weekly")
        assert report.atmost_count == 500
        assert report.atmost_frequency == "weekly"

    def test_archive(self):
        report = self.parse_report("when immediate archive monthly")
        assert report.archive_frequency == "monthly"

    def test_report_query_captured(self):
        report = self.parse_report(
            "select u@url from Report/UpdatedPage u when immediate"
        )
        assert report.query_text.startswith("select u@url")


class TestVirtual:
    def test_virtual_reference(self):
        subscription = parse_subscription(
            "subscription Mine\nvirtual MyXyleme.Member"
        )
        (virtual,) = subscription.virtuals
        assert virtual.subscription == "MyXyleme"
        assert virtual.query == "Member"

    def test_virtual_whole_subscription(self):
        subscription = parse_subscription(
            "subscription Mine\nvirtual MyXyleme"
        )
        assert subscription.virtuals[0].query is None


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "",
            "subscription",
            "monitoring select X where URL = 'u'",  # no subscription header
            "subscription S\nmonitoring\nwhere URL = 'u'",  # no select
            "subscription S\nreport",  # missing when
            "subscription S\nreport when",  # empty when
            "subscription S\nrefresh 'http://u/'",  # missing frequency
            "subscription S\nreport when immediate\nreport when immediate",
            "subscription S\ncontinuous Q\nselect a from b/c a",  # no when
        ],
    )
    def test_rejected(self, source):
        with pytest.raises(SubscriptionSyntaxError):
            parse_subscription(source)


class TestBadLiterals:
    """Malformed numbers and dates are syntax errors at their token, never
    a bare ``ValueError`` out of ``float``, ``int`` or the calendar."""

    WHERE = (
        "subscription T\nmonitoring\nselect X\nfrom self//a X\n"
        "where {}\nreport when immediate"
    )
    REPORT = (
        "subscription T\nmonitoring\nselect X\nfrom self//a X\n"
        'where URL = "http://u/"\nreport when {}'
    )

    @pytest.mark.parametrize(
        "source, line, column",
        [
            pytest.param(WHERE.format("DOCID = 1.2.3"), 5, 15, id="docid-1.2.3"),
            pytest.param(WHERE.format("DTDID = ²"), 5, 15, id="dtdid-superscript"),
            pytest.param(REPORT.format("count >= ²"), 6, 22, id="count-superscript"),
            pytest.param(
                WHERE.format('LastUpdate > "2001-13-45"'), 5, 20, id="month-13"
            ),
            pytest.param(
                WHERE.format('LastUpdate > "20011-05-21"'), 5, 20, id="year-20011"
            ),
            pytest.param(
                WHERE.format('LastUpdate > "2001-02-30"'), 5, 20, id="february-30"
            ),
            pytest.param(
                REPORT.format("immediate atmost " + "9" * 400), 6, 30,
                id="atmost-overflow",
            ),
        ],
    )
    def test_rejected_at_the_literal(self, source, line, column):
        with pytest.raises(SubscriptionSyntaxError) as caught:
            parse_subscription(source)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_real_dates_still_parse(self):
        subscription = parse_subscription(
            self.WHERE.format('LastUpdate > "2000-02-29"')
        )
        assert subscription.monitoring[0].conditions[0].number == 951782400.0


class TestTemplateQuotes:
    """A quote in a ``select`` template's element text is text: only an
    attribute value inside a tag is a quoted run."""

    APOSTROPHE = (
        "subscription Quote\nmonitoring M\n"
        "select <Note text=URL>it's new</Note>\n"
        'where URL extends "http://a.example/"\n  and modified self\n'
        "report when immediate\n"
    )

    def test_apostrophe_in_element_text_regression(self):
        subscription = parse_subscription(self.APOSTROPHE)
        query = subscription.monitoring[0]
        assert query.select.template == "<Note text=URL>it's new</Note>"
        assert [c.kind for c in query.conditions] == ["url_extends", "doc_status"]

    def test_double_quotes_in_element_text(self):
        source = self.APOSTROPHE.replace("it's new", 'say "hi" <b/> now')
        query = parse_subscription(source).monitoring[0]
        assert query.select.template == '<Note text=URL>say "hi" <b/> now</Note>'

    def test_quoted_attribute_value_still_holds_brackets(self):
        source = self.APOSTROPHE.replace("text=URL", "text='</Note>'")
        query = parse_subscription(source).monitoring[0]
        assert query.select.template == "<Note text='</Note>'>it's new</Note>"

    def test_unterminated_attribute_quote_still_rejected(self):
        source = "subscription Quote\nmonitoring M\nselect <Note text='URL/>\n"
        with pytest.raises(SubscriptionSyntaxError, match="unterminated XML"):
            parse_subscription(source)
