"""Property-based tests for the XML substrate (hypothesis)."""

import string

from hypothesis import given, settings, strategies as st

from repro.xmlstore import parse, serialize
from repro.xmlstore.nodes import Document, ElementNode, TextNode

tag_names = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=8
)
text_data = st.text(
    alphabet=string.printable.replace("\x0b", "").replace("\x0c", ""),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())
attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'\t\n\r",
    max_size=20,
)


@st.composite
def element_trees(draw, depth=3):
    tag = draw(tag_names)
    attributes = draw(
        st.dictionaries(tag_names, attr_values, max_size=3)
    )
    element = ElementNode(tag, attributes)
    if depth > 0:
        children = draw(
            st.lists(
                st.one_of(
                    text_data.map(TextNode),
                    element_trees(depth=depth - 1),
                ),
                max_size=4,
            )
        )
        for child in children:
            element.append(child)
    return element


@settings(max_examples=80, deadline=None)
@given(element_trees())
def test_serialize_parse_roundtrip(root):
    """parse(serialize(tree)) reproduces the tree, modulo whitespace-only
    text nodes (which the parser drops by default)."""
    source = serialize(Document(root))
    reparsed = parse(source)
    assert serialize(reparsed) == source


@settings(max_examples=80, deadline=None)
@given(element_trees())
def test_postorder_parent_after_children(root):
    seen = set()
    for node in root.postorder():
        if isinstance(node, ElementNode):
            for child in node.children:
                assert id(child) in seen
        seen.add(id(node))


@settings(max_examples=80, deadline=None)
@given(element_trees())
def test_preorder_and_postorder_visit_same_nodes(root):
    assert {id(n) for n in root.preorder()} == {
        id(n) for n in root.postorder()
    }


@settings(max_examples=50, deadline=None)
@given(element_trees())
def test_levels_consistent_with_parent(root):
    for node in root.preorder():
        if node.parent is not None:
            assert node.level == node.parent.level + 1
