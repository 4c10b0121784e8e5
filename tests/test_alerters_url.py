import pytest

from repro.alerters import URLAlerter
from repro.alerters.context import FetchedDocument
from repro.core import AtomicEventKey
from repro.diff.changes import DOC_NEW, DOC_UNCHANGED, DOC_UPDATED
from repro.errors import MonitoringError
from repro.repository import DocumentMeta, Repository


def fetched(url="http://x/a.xml", status=DOC_NEW, **meta_kwargs):
    meta = DocumentMeta(doc_id=meta_kwargs.pop("doc_id", 1), url=url,
                        **meta_kwargs)
    return FetchedDocument(url=url, meta=meta, status=status)


def key(kind, argument=None):
    return AtomicEventKey(kind, argument)


@pytest.fixture
def alerter():
    return URLAlerter()


class TestURLConditions:
    def test_url_extends(self, alerter):
        alerter.register(1, key("url_extends", "http://inria.fr/Xy/"))
        codes, _ = alerter.detect(fetched("http://inria.fr/Xy/index.html"))
        assert codes == {1}
        codes, _ = alerter.detect(fetched("http://other.fr/"))
        assert codes == set()

    def test_url_eq(self, alerter):
        alerter.register(2, key("url_eq", "http://x/a.xml"))
        assert alerter.detect(fetched("http://x/a.xml"))[0] == {2}
        assert alerter.detect(fetched("http://x/a.xml?q"))[0] == set()

    def test_filename(self, alerter):
        alerter.register(3, key("filename_eq", "index.html"))
        assert alerter.detect(fetched("http://a/b/index.html"))[0] == {3}
        assert alerter.detect(fetched("http://a/b/other.html"))[0] == set()


class TestMetadataConditions:
    def test_dtd_url_and_id(self, alerter):
        alerter.register(4, key("dtd_eq", "http://d/c.dtd"))
        alerter.register(5, key("dtdid_eq", 9))
        document = fetched(dtd_url="http://d/c.dtd", dtd_id=9)
        assert alerter.detect(document)[0] == {4, 5}

    def test_dtd_conditions_follow_the_stored_doctype(self, alerter):
        """The DTD of an updated version reaches ``DTD =`` / ``DTDID =``."""
        repository = Repository()
        url = "http://x/c.xml"
        repository.store_xml(
            url, '<!DOCTYPE c SYSTEM "http://a/a.dtd"><c><p>camera</p></c>'
        )
        outcome = repository.store_xml(
            url, '<!DOCTYPE c SYSTEM "http://b/b.dtd"><c><p>lens</p></c>'
        )
        b_id = repository.classifier.dtd_registry.id_for("http://b/b.dtd")
        alerter.register(1, key("dtd_eq", "http://a/a.dtd"))
        alerter.register(2, key("dtd_eq", "http://b/b.dtd"))
        alerter.register(3, key("dtdid_eq", b_id))
        document = FetchedDocument(
            url=url,
            meta=outcome.meta,
            status=outcome.status,
            document=outcome.document,
        )
        assert outcome.status == DOC_UPDATED
        assert alerter.detect(document)[0] == {2, 3}

    def test_docid(self, alerter):
        alerter.register(6, key("docid_eq", 42))
        assert alerter.detect(fetched(doc_id=42))[0] == {6}
        assert alerter.detect(fetched(doc_id=43))[0] == set()

    def test_domain(self, alerter):
        alerter.register(7, key("domain_eq", "biology"))
        assert alerter.detect(fetched(domain="biology"))[0] == {7}
        assert alerter.detect(fetched())[0] == set()

    def test_dates(self, alerter):
        alerter.register(8, key("last_update", (">=", 1000.0)))
        alerter.register(9, key("last_accessed", ("<", 500.0)))
        document = fetched(last_updated=2000.0, last_accessed=100.0)
        assert alerter.detect(document)[0] == {8, 9}
        document = fetched(last_updated=10.0, last_accessed=600.0)
        assert alerter.detect(document)[0] == set()


class TestStatusConditions:
    def test_statuses(self, alerter):
        alerter.register(10, key("doc_new"))
        alerter.register(11, key("doc_updated"))
        alerter.register(12, key("doc_unchanged"))
        assert alerter.detect(fetched(status=DOC_NEW))[0] == {10}
        assert alerter.detect(fetched(status=DOC_UPDATED))[0] == {11}
        assert alerter.detect(fetched(status=DOC_UNCHANGED))[0] == {12}


class TestRegistrationLifecycle:
    def test_unregister(self, alerter):
        alerter.register(1, key("url_extends", "http://a/"))
        alerter.unregister(1, key("url_extends", "http://a/"))
        assert alerter.detect(fetched("http://a/x"))[0] == set()

    def test_unregister_dates(self, alerter):
        alerter.register(8, key("last_update", (">=", 0.0)))
        alerter.unregister(8, key("last_update", (">=", 0.0)))
        assert alerter.detect(fetched(last_updated=5.0))[0] == set()

    def test_unknown_kind_rejected(self, alerter):
        with pytest.raises(MonitoringError):
            alerter.register(1, key("tag_present", ("t", None, False)))


class TestMultipleConditionsOneDocument:
    def test_all_families_fire_together(self, alerter):
        alerter.register(1, key("url_extends", "http://inria.fr/"))
        alerter.register(2, key("filename_eq", "members.xml"))
        alerter.register(3, key("doc_updated"))
        document = fetched(
            "http://inria.fr/Xy/members.xml", status=DOC_UPDATED
        )
        assert alerter.detect(document)[0] == {1, 2, 3}
