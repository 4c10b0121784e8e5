import pytest

from repro.errors import RepositoryError
from repro.pipeline import SubscriptionSystem
from repro.recovery import capture_runtime, restore_runtime
from repro.repository import (
    Repository,
    SemanticClassifier,
    load_repository,
    save_repository,
)
from repro.xmlstore import serialize


@pytest.fixture
def snapshot_dir(tmp_path):
    return str(tmp_path / "warehouse")


def fresh_repository(classifier, clock):
    return Repository(classifier=classifier, clock=clock)


class TestSaveLoad:
    def test_roundtrip_documents_and_metadata(
        self, repository, classifier, clock, snapshot_dir
    ):
        repository.store_xml(
            "http://m.example/c.xml",
            '<!DOCTYPE museum SYSTEM "http://d/m.dtd">'
            "<museum><painting>art</painting></museum>",
        )
        repository.store_html("http://h.example/p.html", "<html>x</html>")
        count = save_repository(repository, snapshot_dir)
        assert count == 2

        loaded = fresh_repository(classifier, clock)
        assert load_repository(loaded, snapshot_dir) == 2
        meta = loaded.meta_for_url("http://m.example/c.xml")
        assert meta.domain == "culture"
        assert meta.dtd_url == "http://d/m.dtd"
        document = loaded.document_for_url("http://m.example/c.xml")
        assert "painting" in serialize(document)

    def test_indexes_rebuilt_on_load(
        self, repository, classifier, clock, snapshot_dir
    ):
        repository.store_xml("http://x/a.xml", "<r>findme word</r>")
        save_repository(repository, snapshot_dir)
        loaded = fresh_repository(classifier, clock)
        load_repository(loaded, snapshot_dir)
        assert loaded.indexes.documents_with_word("findme") != set()

    def test_diff_continuity_after_reload(
        self, repository, classifier, clock, snapshot_dir
    ):
        """A refetch after reload diffs against the reloaded version:
        XIDs survive the snapshot."""
        repository.store_xml(
            "http://x/a.xml", "<members><Member><name>a</name></Member></members>"
        )
        save_repository(repository, snapshot_dir)
        loaded = fresh_repository(classifier, clock)
        load_repository(loaded, snapshot_dir)
        clock.advance(60)
        outcome = loaded.store_xml(
            "http://x/a.xml",
            "<members><Member><name>a</name></Member>"
            "<Member><name>b</name></Member></members>",
        )
        assert outcome.status == "updated"
        assert outcome.delta is not None
        assert len(outcome.delta.inserts) == 1

    def test_doc_ids_continue_after_reload(
        self, repository, classifier, clock, snapshot_dir
    ):
        repository.store_xml("http://x/a.xml", "<r/>")
        save_repository(repository, snapshot_dir)
        loaded = fresh_repository(classifier, clock)
        load_repository(loaded, snapshot_dir)
        outcome = loaded.store_xml("http://x/b.xml", "<s/>")
        assert outcome.meta.doc_id == 2
        # The counter itself is saved: a removed document's id is never
        # handed to a new page after a reload.
        loaded.remove("http://x/b.xml")
        save_repository(loaded, snapshot_dir)
        reloaded = fresh_repository(classifier, clock)
        load_repository(reloaded, snapshot_dir)
        outcome = reloaded.store_xml("http://x/c.xml", "<t/>")
        assert outcome.meta.doc_id == 3

    def test_unchanged_refetch_after_reload(
        self, repository, classifier, clock, snapshot_dir
    ):
        repository.store_xml("http://x/a.xml", "<r><a>1</a></r>")
        save_repository(repository, snapshot_dir)
        loaded = fresh_repository(classifier, clock)
        load_repository(loaded, snapshot_dir)
        outcome = loaded.store_xml("http://x/a.xml", "<r><a>1</a></r>")
        assert outcome.status == "unchanged"


A_DTD = "http://d/A.dtd"
B_DTD = "http://d/B.dtd"
C_DTD = "http://d/C.dtd"


def with_doctype(dtd_url, body):
    return f'<!DOCTYPE r SYSTEM "{dtd_url}">{body}'


def reload_from_files(source, target, tmp_path):
    directory = str(tmp_path / "warehouse")
    save_repository(source.repository, directory)
    load_repository(target.repository, directory)


def reload_from_checkpoint(source, target, tmp_path):
    restore_runtime(target, capture_runtime(source))


class TestDTDIdsAcrossRestore:
    """The DTD registry keeps its ids through both restore paths, so
    ``DTDID`` conditions keep matching the pages they matched before."""

    @pytest.fixture(
        params=[reload_from_files, reload_from_checkpoint],
        ids=["save_load", "checkpoint"],
    )
    def reload(self, request):
        return request.param

    def test_ids_and_pins_survive_restore(self, reload, clock, tmp_path):
        source = SubscriptionSystem(clock=clock)
        repository = source.repository
        repository.classifier.assign_dtd(A_DTD, "alpha")
        repository.store_xml("http://x/1.xml", "<r>one</r>")
        repository.store_xml(
            "http://x/2.xml", with_doctype(A_DTD, "<r>two</r>")
        )
        repository.store_xml(
            "http://x/1.xml", with_doctype(B_DTD, "<r>one</r>")
        )
        registry = repository.classifier.dtd_registry
        assert (registry.id_for(A_DTD), registry.id_for(B_DTD)) == (1, 2)

        target = SubscriptionSystem(clock=clock)
        # Pins made on the fresh classifier before the restore.
        target.repository.classifier.assign_dtd(B_DTD, "beta")
        target.repository.classifier.assign_dtd(C_DTD, "gamma")
        reload(source, target, tmp_path)

        restored = target.repository
        registry = restored.classifier.dtd_registry
        for meta in restored.all_meta():
            if meta.dtd_url is not None:
                assert registry.id_for(meta.dtd_url) == meta.dtd_id
        assert restored.meta_for_url("http://x/1.xml").dtd_id == 2
        assert registry.id_for(C_DTD) == 3

        new_b = restored.store_xml(
            "http://x/3.xml", with_doctype(B_DTD, "<r>three</r>")
        )
        assert (new_b.meta.dtd_id, new_b.meta.domain) == (2, "beta")
        new_a = restored.store_xml(
            "http://x/4.xml", with_doctype(A_DTD, "<r>four</r>")
        )
        assert (new_a.meta.dtd_id, new_a.meta.domain) == (1, "alpha")
        new_c = restored.store_xml(
            "http://x/5.xml", with_doctype(C_DTD, "<r>five</r>")
        )
        assert (new_c.meta.dtd_id, new_c.meta.domain) == (3, "gamma")


class TestErrors:
    def test_load_into_nonempty_repository_rejected(
        self, repository, snapshot_dir
    ):
        repository.store_xml("http://x/a.xml", "<r/>")
        save_repository(repository, snapshot_dir)
        with pytest.raises(RepositoryError):
            load_repository(repository, snapshot_dir)

    def test_missing_snapshot_rejected(
        self, classifier, clock, tmp_path
    ):
        loaded = fresh_repository(classifier, clock)
        with pytest.raises(RepositoryError):
            load_repository(loaded, str(tmp_path / "nothing"))

    def test_save_empty_repository(self, repository, snapshot_dir):
        assert save_repository(repository, snapshot_dir) == 0


class TestCrawlerPageRemoval:
    def test_removed_page_not_fetched(self):
        from repro.clock import SECONDS_PER_DAY, SimulatedClock
        from repro.webworld import SimulatedCrawler, SiteGenerator

        clock = SimulatedClock(0.0)
        crawler = SimulatedCrawler(clock=clock, seed=1)
        crawler.add_xml_page(
            "http://a/x.xml", SiteGenerator(seed=1).catalog(2)
        )
        list(crawler.due_fetches())
        crawler.remove_page("http://a/x.xml")
        clock.advance(SECONDS_PER_DAY)
        assert list(crawler.due_fetches()) == []
