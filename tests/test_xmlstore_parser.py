import importlib
import pathlib
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XMLSyntaxError
from repro.xmlstore import parse
from repro.xmlstore.nodes import ElementNode, TextNode


class TestBasicParsing:
    def test_root_tag(self):
        assert parse("<catalog/>").root.tag == "catalog"

    def test_nested_children(self):
        doc = parse("<a><b><c/></b></a>")
        assert doc.root.children[0].tag == "b"
        assert doc.root.children[0].children[0].tag == "c"

    def test_text_content(self):
        doc = parse("<a>hello</a>")
        assert doc.root.text_content() == "hello"

    def test_attributes(self):
        doc = parse('<a href="http://x/">link</a>')
        assert doc.root.attributes["href"] == "http://x/"

    def test_mixed_content_order(self):
        doc = parse("<a>one<b/>two</a>")
        children = doc.root.children
        assert isinstance(children[0], TextNode)
        assert isinstance(children[1], ElementNode)
        assert isinstance(children[2], TextNode)

    def test_adjacent_text_tokens_folded(self):
        doc = parse("<a>x&amp;y</a>")
        assert len(doc.root.children) == 1
        assert doc.root.text_content() == "x&y"

    def test_doctype_captured(self):
        doc = parse('<!DOCTYPE m SYSTEM "http://d/m.dtd"><m/>')
        assert doc.dtd_url == "http://d/m.dtd"
        assert doc.doctype_name == "m"


class TestWhitespace:
    def test_interelement_whitespace_dropped_by_default(self):
        doc = parse("<a>\n  <b/>\n</a>")
        assert len(doc.root.children) == 1

    def test_significant_whitespace_in_text_kept(self):
        doc = parse("<a>  padded  </a>")
        assert doc.root.text_content() == "  padded  "


class TestStartEndTags:
    def test_simple_element(self):
        doc = parse("<a></a>")
        assert (doc.root.tag, doc.root.attributes, doc.root.children) == (
            "a",
            {},
            [],
        )

    def test_self_closing(self):
        doc = parse("<a/>")
        assert (doc.root.tag, doc.root.attributes, doc.root.children) == (
            "a",
            {},
            [],
        )

    def test_attributes_double_and_single_quotes(self):
        doc = parse("<a x=\"1\" y='two'/>")
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_attribute_entities_decoded(self):
        assert parse('<a x="a&amp;b"/>').root.attributes["x"] == "a&b"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x="1" x="2"/>')

    def test_missing_equals_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x "1"/>')

    def test_namespace_colon_in_tag(self):
        assert parse("<ns:item/>").root.tag == "ns:item"

    def test_whitespace_inside_end_tag(self):
        doc = parse("<a><b>x</b ></a >")
        assert doc.root.first("b").text_content() == "x"


class TestText:
    def test_text_between_tags(self):
        (child,) = parse("<a>hello</a>").root.children
        assert isinstance(child, TextNode)
        assert child.data == "hello"

    def test_predefined_entities(self):
        doc = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text_content() == "<>&'\""

    def test_numeric_entities(self):
        assert parse("<a>&#65;&#x42;</a>").root.text_content() == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&amp</a>")

    def test_unknown_entity_under_external_dtd_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse('<!DOCTYPE c SYSTEM "u"><c>&nope;</c>')

    def test_declared_entity_never_expands(self):
        with pytest.raises(XMLSyntaxError):
            parse('<!DOCTYPE c [<!ENTITY f "bar">]><c>&f;</c>')


class TestMarkupSkipping:
    def test_comments_skipped(self):
        doc = parse("<a>x<!-- note -->y</a>")
        assert [c.data for c in doc.root.children] == ["xy"]

    def test_unterminated_comment_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><!-- oops")

    def test_processing_instruction_skipped(self):
        doc = parse('<?xml version="1.0"?><a><?pi data?></a>')
        assert doc.root.tag == "a"
        assert doc.root.children == []

    def test_cdata_becomes_text(self):
        doc = parse("<a>x<![CDATA[<raw>&]]>y</a>")
        assert [c.data for c in doc.root.children] == ["x<raw>&y"]


class TestDoctype:
    def test_doctype_with_system_url(self):
        doc = parse('<!DOCTYPE cat SYSTEM "http://d/x.dtd"><cat/>')
        assert (doc.doctype_name, doc.dtd_url) == ("cat", "http://d/x.dtd")

    def test_doctype_public(self):
        doc = parse('<!DOCTYPE c PUBLIC "pub-id" "http://d/c.dtd"><c/>')
        assert (doc.doctype_name, doc.dtd_url) == ("c", "http://d/c.dtd")

    def test_doctype_without_system(self):
        doc = parse("<!DOCTYPE cat><cat/>")
        assert (doc.doctype_name, doc.dtd_url) == ("cat", None)

    def test_doctype_internal_subset_skipped(self):
        doc = parse("<!DOCTYPE c [ <!ELEMENT c EMPTY> ]><c/>")
        assert (doc.doctype_name, doc.dtd_url) == ("c", None)


class TestErrorPositions:
    def test_error_carries_line_and_column(self):
        with pytest.raises(XMLSyntaxError) as exc_info:
            parse("<a>\n  <b x=></b></a>")
        assert exc_info.value.line == 2
        assert exc_info.value.column >= 1

    def test_error_column_is_one_based(self):
        with pytest.raises(XMLSyntaxError) as exc_info:
            parse("<a>\n<b x=></b></a>")  # the stray ">" is column 6
        assert (exc_info.value.line, exc_info.value.column) == (2, 6)


class TestWellFormedness:
    def test_mismatched_tags_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b></a></b>")

    def test_unclosed_element_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b>")

    def test_stray_end_tag_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/></b>")

    def test_two_roots_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/><b/>")

    def test_empty_document_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("   ")

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/>stray")

    def test_doctype_after_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/><!DOCTYPE a>")


class TestPaperExamples:
    def test_member_list(self):
        doc = parse(
            "<Report>"
            '<UpdatedPage url="http://inria.fr/Xy/index.html"/>'
            "<Member><name>nguyen</name><fn>benjamin</fn></Member>"
            "</Report>"
        )
        member = doc.root.first("Member")
        assert member is not None
        assert member.first("name").text_content() == "nguyen"


# -- oracle: the parser's tree equals one built through the constructors ------


def reference_tree(source: str) -> ElementNode:
    """``source`` read by ``xml.etree`` and rebuilt with the public
    constructors and ``append``, dropping whitespace-only text as the
    parser does."""

    def build(element: ET.Element) -> ElementNode:
        node = ElementNode(element.tag, element.attrib)
        if element.text and element.text.strip():
            node.append(TextNode(element.text))
        for child in element:
            node.append(build(child))
            if child.tail and child.tail.strip():
                node.append(TextNode(child.tail))
        return node

    return build(ET.fromstring(source))


def assert_same_tree(parsed: ElementNode, reference: ElementNode) -> None:
    assert parsed.parent is None
    elements = []
    pending = [(parsed, reference)]
    while pending:
        node, expected = pending.pop()
        assert type(node) is type(expected)
        assert node.xid is None
        if isinstance(node, TextNode):
            assert (node.data, node.words) == (expected.data, None)
            continue
        elements.append(node)
        assert (node.tag, node.attributes) == (expected.tag, expected.attributes)
        assert len(node.children) == len(expected.children)
        for child, expected_child in zip(node.children, expected.children):
            assert child.parent is node
            pending.append((child, expected_child))
    # No two elements share an attribute dict.
    assert len({id(element.attributes) for element in elements}) == len(elements)


def _crawl_catalog_texts():
    """The fetch texts of a small crawl-catalog world of the benchmark."""
    root = pathlib.Path(__file__).resolve().parent.parent
    saved = list(sys.path)
    sys.path.insert(0, str(root / "perfbench"))
    try:
        scenarios = importlib.import_module("scenarios")
    finally:
        sys.path[:] = saved
    world = scenarios.crawl_catalog_world(
        1, dict(sites=6, products=20, hours=24)
    )
    return [fetch.content for tick in world.ticks for fetch in tick]


TAGS = ["a", "b", "Product", "x-y", "t.1"]
TEXT_PIECES = [
    "word", " ", "\n", "\r\n", "\t", "&amp;", "&lt;", "&gt;", "&#233;",
    "&#x42;", "&quot;", "&apos;", "'", '"', ">", "é", "<![CDATA[a<b&c]]>",
    "<![CDATA[]]>", "<!-- note -->", "<?pi data?>",
]
ATTRIBUTE_PIECES = ["v", " ", "&amp;", "&lt;", "&quot;", "é", "'", "\t", "\n"]

texts = st.lists(st.sampled_from(TEXT_PIECES), max_size=6).map("".join)
attributes = st.dictionaries(
    st.sampled_from(["id", "x", "y-z", "_a"]),
    st.lists(st.sampled_from(ATTRIBUTE_PIECES), max_size=4).map("".join),
    max_size=3,
)


def render(tag, attrs, parts) -> str:
    rendered = "".join(f' {name}="{value}"' for name, value in attrs.items())
    if not parts:
        return f"<{tag}{rendered}/>"
    return f"<{tag}{rendered}>{''.join(parts)}</{tag}>"


def _elements(children):
    return st.builds(
        render,
        st.sampled_from(TAGS),
        attributes,
        st.lists(st.one_of(texts, children), max_size=5),
    )


xml_documents = st.builds(
    lambda prolog, body: prolog + body,
    st.sampled_from(
        ["", '<?xml version="1.0"?>\n', '<!DOCTYPE a SYSTEM "http://d/a.dtd">']
    ),
    st.recursive(
        st.builds(render, st.sampled_from(TAGS), attributes, st.lists(texts, max_size=2)),
        _elements,
        max_leaves=25,
    ),
)


class TestConstructorOracle:
    @settings(max_examples=300, deadline=None)
    @given(xml_documents)
    def test_generated_xml(self, source):
        assert_same_tree(parse(source).root, reference_tree(source))

    def test_crawl_catalog_texts(self):
        sources = _crawl_catalog_texts()
        assert len(sources) >= 20
        for source in sources:
            assert_same_tree(parse(source).root, reference_tree(source))

    def test_text_split_by_expat_folds_into_one_node(self):
        # Longer than expat's text buffer, and cut by entity references.
        data = "x" * 20_000 + "&amp;" + "y" * 9_000
        source = f"<a>{data}<b/>{data}</a>"
        assert_same_tree(parse(source).root, reference_tree(source))
        assert len(parse(source).root.children) == 3
