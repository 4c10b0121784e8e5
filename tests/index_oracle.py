"""Oracle for the warehouse index: compare it with a from-scratch rebuild.

The repository maintains its word and tag counts from each version's
delta.  The rebuild indexes ``Repository.document()`` of every stored XML
document, a fresh copy whose text nodes carry no cached words, so it
tokenises every text node again.
"""

from __future__ import annotations

from repro.repository import Repository, WarehouseIndexes
from repro.xmlstore import TextNode, unique_words


def index_state(indexes: WarehouseIndexes) -> dict:
    """Every posting list and per-document count of ``indexes``."""
    return {
        "by_word": indexes._by_word,
        "by_tag": indexes._by_tag,
        "by_dtd": indexes._by_dtd,
        "by_domain": indexes._by_domain,
        "word_counts": indexes._word_counts,
        "tag_counts": indexes._tag_counts,
        "doc_dtd": indexes._doc_dtd,
        "doc_domain": indexes._doc_domain,
    }


def rebuilt_indexes(repository: Repository) -> WarehouseIndexes:
    rebuilt = WarehouseIndexes()
    for doc_id in repository.xml_doc_ids():
        rebuilt.index_document(
            doc_id,
            repository.document(doc_id),
            domain=repository.meta(doc_id).domain,
        )
    return rebuilt


def assert_index_matches_rebuild(repository: Repository) -> None:
    assert index_state(repository.indexes) == index_state(
        rebuilt_indexes(repository)
    )


def assert_words_cache_sound(document) -> None:
    """Each text node's ``words`` is unset or its text's distinct words."""
    for node in document.preorder():
        if isinstance(node, TextNode) and node.words is not None:
            assert node.words == unique_words(node.data), node.data
