from repro.diff import XidSpace, apply_delta, compute_delta, copy_document
from repro.xmlstore import TextNode, parse
from repro.xmlstore.words import (
    DEFAULT_STOP_WORDS,
    extract_words,
    normalize_word,
    text_words,
    unique_words,
)


def text_nodes(document):
    return [node for node in document.preorder() if isinstance(node, TextNode)]


class TestNormalization:
    def test_casefolded(self):
        assert normalize_word("Camera") == "camera"

    def test_already_lower_unchanged(self):
        assert normalize_word("xml") == "xml"


class TestExtraction:
    def test_simple_split(self):
        assert extract_words("new camera shipped") == [
            "new", "camera", "shipped",
        ]

    def test_punctuation_separates(self):
        assert extract_words("one,two;three.") == ["one", "two", "three"]

    def test_hyphenated_word_stays_whole(self):
        # The paper's example condition: category = "hi-fi".
        assert extract_words("great hi-fi sound") == ["great", "hi-fi", "sound"]

    def test_leading_trailing_hyphens_stripped(self):
        assert extract_words("-dash- 'quote'") == ["dash", "quote"]

    def test_numbers_are_words(self):
        assert extract_words("price 1642 euros") == ["price", "1642", "euros"]

    def test_case_folding_applied(self):
        assert extract_words("XML Warehouse") == ["xml", "warehouse"]

    def test_empty_text(self):
        assert extract_words("") == []
        assert extract_words("   ...   ") == []

    def test_duplicates_preserved_in_extract(self):
        assert extract_words("a b a") == ["a", "b", "a"]

    def test_unique_words_dedupes(self):
        assert unique_words("a b a") == {"a", "b"}

    def test_apostrophe_inside_word(self):
        assert extract_words("l'art d'amazon") == ["l'art", "d'amazon"]


class TestStopWords:
    def test_the_is_a_stop_word(self):
        # Section 5.4 names "the" explicitly.
        assert "the" in DEFAULT_STOP_WORDS

    def test_content_words_are_not(self):
        assert "camera" not in DEFAULT_STOP_WORDS


class TestWordCache:
    def test_text_words_fills_the_cache_once(self):
        node = TextNode("Camera camera lens")
        assert node.words is None
        words = text_words(node)
        assert words == unique_words(node.data) == {"camera", "lens"}
        assert node.words is words
        assert text_words(node) is words

    def test_new_trees_start_with_words_unset(self):
        old = parse("<r><a>one</a><b>two</b></r>")
        XidSpace().assign_fresh(old.root)
        for node in text_nodes(old):
            text_words(node)
        new = parse("<r><a>one</a><b>three</b></r>")
        delta = compute_delta(old, new, XidSpace(first_xid=100))
        for document in (
            parse("<r>x</r>"),
            copy_document(old),
            apply_delta(old, delta),
        ):
            assert all(node.words is None for node in text_nodes(document))

    def test_diff_carries_words_onto_unchanged_text_only(self):
        old = parse("<r><a>one</a><b>two</b><c>x</c></r>")
        XidSpace().assign_fresh(old.root)
        for node in text_nodes(old):
            text_words(node)
        new = parse("<r><a>one</a><b>three</b><d>y</d></r>")
        compute_delta(old, new, XidSpace(first_xid=100))
        kept, updated, inserted = text_nodes(new)
        assert kept.words is text_nodes(old)[0].words
        assert updated.words is None
        assert inserted.words is None
