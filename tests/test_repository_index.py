import json

from repro.clock import SimulatedClock
from repro.diff import DOC_UPDATED, XidSpace, compute_delta
from repro.pipeline import SubscriptionSystem
from repro.recovery.state import capture_runtime, restore_runtime
from repro.repository import (
    Repository,
    WarehouseIndexes,
    load_repository,
    save_repository,
)
from repro.xmlstore import parse

from .index_oracle import assert_index_matches_rebuild, index_state


def make_indexes():
    indexes = WarehouseIndexes()
    indexes.index_document(
        1,
        parse(
            '<!DOCTYPE c SYSTEM "http://d/c.dtd">'
            "<catalog><Product>digital camera</Product></catalog>"
        ),
        domain="commerce",
    )
    indexes.index_document(
        2, parse("<museum><painting>camera obscura</painting></museum>"),
        domain="culture",
    )
    return indexes


class TestLookups:
    def test_word_lookup(self):
        indexes = make_indexes()
        assert indexes.documents_with_word("camera") == {1, 2}
        assert indexes.documents_with_word("digital") == {1}

    def test_tag_lookup(self):
        indexes = make_indexes()
        assert indexes.documents_with_tag("Product") == {1}
        assert indexes.documents_with_tag("museum") == {2}

    def test_dtd_lookup(self):
        indexes = make_indexes()
        assert indexes.documents_with_dtd("http://d/c.dtd") == {1}

    def test_domain_lookup(self):
        indexes = make_indexes()
        assert indexes.documents_in_domain("commerce") == {1}

    def test_unknown_keys_empty(self):
        indexes = make_indexes()
        assert indexes.documents_with_word("zzz") == set()
        assert indexes.documents_in_domain("zzz") == set()

    def test_word_frequency(self):
        indexes = make_indexes()
        assert indexes.word_frequency("camera") == 2
        assert indexes.word_frequency("zzz") == 0

    def test_words_are_casefolded(self):
        indexes = WarehouseIndexes()
        indexes.index_document(5, parse("<a>CAMERA</a>"))
        assert indexes.documents_with_word("camera") == {5}


class TestMaintenance:
    def test_reindex_replaces_postings(self):
        indexes = make_indexes()
        indexes.index_document(1, parse("<other>fresh words</other>"))
        assert indexes.documents_with_word("digital") == set()
        assert indexes.documents_with_word("fresh") == {1}
        assert indexes.documents_with_tag("Product") == set()

    def test_unindex_removes_everything(self):
        indexes = make_indexes()
        indexes.unindex_document(1)
        assert indexes.documents_with_word("digital") == set()
        assert indexes.documents_with_dtd("http://d/c.dtd") == set()
        assert indexes.documents_in_domain("commerce") == set()

    def test_unindex_unknown_doc_is_noop(self):
        indexes = make_indexes()
        indexes.unindex_document(99)
        assert indexes.documents_with_word("camera") == {1, 2}

    def test_vocabulary_size(self):
        indexes = WarehouseIndexes()
        indexes.index_document(1, parse("<a>one two two</a>"))
        assert indexes.vocabulary_size() == 2


URL = "http://x/a.xml"


def stored_twice(repository, first, second):
    repository.store_xml(URL, first)
    outcome = repository.store_xml(URL, second)
    assert outcome.status == DOC_UPDATED and outcome.delta is not None
    return outcome.meta.doc_id


class TestCountsFromTheDelta:
    def test_word_stays_posted_while_another_text_node_has_it(
        self, repository
    ):
        doc_id = stored_twice(
            repository,
            "<r><a>camera one</a><b>camera two</b></r>",
            "<r><b>camera two</b></r>",
        )
        assert repository.indexes.documents_with_word("camera") == {doc_id}
        assert repository.indexes.documents_with_word("one") == set()
        assert_index_matches_rebuild(repository)

    def test_tag_unposted_when_its_last_element_goes(self, repository):
        doc_id = stored_twice(
            repository,
            "<r><a>x</a><a>y</a><b>z</b></r>",
            "<r><b>z</b></r>",
        )
        assert repository.indexes.documents_with_tag("a") == set()
        assert repository.indexes.documents_with_tag("b") == {doc_id}
        assert_index_matches_rebuild(repository)

    def test_text_update_swaps_words(self, repository):
        doc_id = stored_twice(
            repository,
            "<r><a>old price</a><b>price</b></r>",
            "<r><a>new price</a><b>price</b></r>",
        )
        assert repository.indexes.documents_with_word("old") == set()
        assert repository.indexes.documents_with_word("new") == {doc_id}
        assert repository.indexes.documents_with_word("price") == {doc_id}
        assert_index_matches_rebuild(repository)

    def test_delta_argument_counts_only_the_changes(self):
        old = parse("<r><a>kept gone</a><b>kept</b></r>")
        new = parse("<r><b>kept</b><c>fresh</c></r>")
        space = XidSpace()
        space.assign_fresh(old.root)
        indexes = WarehouseIndexes()
        indexes.index_document(1, old)
        indexes.index_document(1, new, delta=compute_delta(old, new, space))
        rebuilt = WarehouseIndexes()
        rebuilt.index_document(1, new)
        assert index_state(indexes) == index_state(rebuilt)


class TestRestoredRepositoryIndexesDeltas:
    FIRST = "<catalog><Product>digital camera</Product></catalog>"
    SECOND = (
        "<catalog><Product>film camera</Product>"
        "<Product>tripod</Product></catalog>"
    )

    def test_after_persistence_reload(
        self, repository, classifier, clock, tmp_path
    ):
        repository.store_xml(URL, self.FIRST)
        save_repository(repository, str(tmp_path))
        loaded = Repository(classifier=classifier, clock=clock)
        load_repository(loaded, str(tmp_path))
        assert loaded.store_xml(URL, self.SECOND).status == DOC_UPDATED
        assert loaded.indexes.documents_with_word("digital") == set()
        assert_index_matches_rebuild(loaded)

    def test_after_recovery_checkpoint(self, classifier, clock):
        system = SubscriptionSystem(clock=clock, classifier=classifier)
        system.repository.store_xml(URL, self.FIRST)
        state = json.loads(json.dumps(capture_runtime(system)))
        fresh = SubscriptionSystem(
            clock=SimulatedClock(clock.now()), classifier=classifier
        )
        restore_runtime(fresh, state)
        outcome = fresh.repository.store_xml(URL, self.SECOND)
        assert outcome.status == DOC_UPDATED
        assert fresh.repository.indexes.documents_with_word("tripod") == {
            outcome.meta.doc_id
        }
        assert_index_matches_rebuild(fresh.repository)
