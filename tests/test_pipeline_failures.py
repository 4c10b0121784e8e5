"""Failure injection: the system must survive hostile inputs."""

import pytest

from repro.errors import XMLSyntaxError
from repro.pipeline import Fetch, SubscriptionSystem


def nested(depth, word):
    return (
        "".join(f"<n{i}>" for i in range(depth))
        + word
        + "".join(f"</n{i}>" for i in reversed(range(depth)))
    )


class TestMalformedPages:
    def test_feed_xml_raises_on_malformed(self, system):
        with pytest.raises(XMLSyntaxError):
            system.feed_xml("http://bad.example/p.xml", "<r><unclosed>")

    def test_run_stream_skips_malformed_by_default(self, system):
        system.subscribe(
            """
            subscription S
            monitoring M
            select <Hit url=URL/>
            where URL extends "http://watched.example/"
            report when immediate
            """,
            owner_email="u@x",
        )
        results = system.run_stream(
            [
                Fetch("http://watched.example/good.xml", "<r/>"),
                Fetch("http://watched.example/bad.xml", "<r><boom>"),
                Fetch("http://watched.example/also-good.xml", "<ok/>"),
            ]
        )
        assert len(results) == 2
        assert system.documents_rejected == 1
        assert system.documents_fed == 2

    def test_run_stream_strict_mode(self, system):
        with pytest.raises(XMLSyntaxError):
            system.run_stream(
                [Fetch("http://x/bad.xml", "<r><boom>")],
                skip_malformed=False,
            )

    def test_malformed_refetch_keeps_old_version(self, system, clock):
        system.feed_xml("http://x/a.xml", "<r><keep/></r>")
        clock.advance(60)
        system.run_stream([Fetch("http://x/a.xml", "<r><bad")])
        document = system.repository.document_for_url("http://x/a.xml")
        assert document.root.first("keep") is not None


class TestHostileContent:
    def test_deeply_nested_document(self, system):
        result = system.feed_xml("http://deep.example/p.xml", nested(200, "x"))
        assert result.outcome.status == "new"

    def test_too_deep_page_rejected_without_aborting_stream(
        self, classifier, clock
    ):
        system = SubscriptionSystem(clock=clock, classifier=classifier)
        system.run_stream(
            [
                Fetch("http://ok.example/a.xml", "<r>a</r>"),
                Fetch("http://deep.example/p.xml", nested(500, "one")),
                Fetch("http://ok.example/b.xml", "<r>b</r>"),
            ]
        )
        clock.advance(60)
        system.run_stream(
            [
                Fetch("http://deep.example/p.xml", nested(500, "two")),
                Fetch("http://ok.example/c.xml", "<r>c</r>"),
            ]
        )
        assert system.documents_rejected == 2
        assert system.documents_fed == 3

    def test_huge_flat_document(self, system):
        source = "<r>" + "<item>x</item>" * 5_000 + "</r>"
        result = system.feed_xml("http://wide.example/p.xml", source)
        assert result.outcome.meta.version == 1

    def test_unicode_content(self, system):
        system.subscribe(
            """
            subscription U
            monitoring M
            select <Hit url=URL/>
            where URL extends "http://intl.example/"
              and self contains "données"
            report when immediate
            """,
            owner_email="u@x",
        )
        result = system.feed_xml(
            "http://intl.example/p.xml",
            "<r>des données célèbres — 数据</r>",
        )
        assert len(result.notifications) == 1

    def test_entity_heavy_document(self, system):
        result = system.feed_xml(
            "http://ent.example/p.xml",
            "<r>" + "&amp;&lt;&gt;" * 1000 + "</r>",
        )
        assert result.outcome.status == "new"

    def test_same_url_alternating_content_types_rejected(self, system):
        system.feed_html("http://mixed.example/p", "<html>x</html>")
        from repro.errors import RepositoryError

        with pytest.raises(RepositoryError):
            system.feed_xml("http://mixed.example/p", "<r/>")
