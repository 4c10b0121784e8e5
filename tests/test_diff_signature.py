import repro.diff.signature as signature_module
from repro.diff import XidSpace, apply_delta, compute_delta, copy_document
from repro.diff.signature import (
    document_signature,
    document_signatures,
    page_signature,
    subtree_signatures,
)
from repro.webworld import SiteGenerator
from repro.xmlstore import parse, serialize


class TestDocumentSignature:
    def test_identical_documents_same_signature(self):
        a = parse("<r><x>1</x></r>")
        b = parse("<r><x>1</x></r>")
        assert document_signature(a) == document_signature(b)

    def test_text_change_changes_signature(self):
        a = parse("<r><x>1</x></r>")
        b = parse("<r><x>2</x></r>")
        assert document_signature(a) != document_signature(b)

    def test_attribute_change_changes_signature(self):
        a = parse('<r k="1"/>')
        b = parse('<r k="2"/>')
        assert document_signature(a) != document_signature(b)

    def test_attribute_order_irrelevant(self):
        a = parse('<r a="1" b="2"/>')
        b = parse('<r b="2" a="1"/>')
        assert document_signature(a) == document_signature(b)

    def test_child_order_matters(self):
        a = parse("<r><x/><y/></r>")
        b = parse("<r><y/><x/></r>")
        assert document_signature(a) != document_signature(b)

    def test_tag_rename_changes_signature(self):
        assert document_signature(parse("<r><x/></r>")) != document_signature(
            parse("<r><z/></r>")
        )


class TestSubtreeSignatures:
    def test_every_node_has_a_signature(self):
        doc = parse("<r><a>t</a><b/></r>")
        signatures = subtree_signatures(doc.root)
        assert len(signatures) == len(list(doc.preorder()))

    def test_identical_subtrees_share_signature(self):
        doc = parse("<r><a><x>1</x></a><b><x>1</x></b></r>")
        signatures = subtree_signatures(doc.root)
        a, b = doc.root.children
        assert signatures[id(a.children[0])] == signatures[id(b.children[0])]

    def test_element_and_text_never_collide_on_content(self):
        doc = parse("<r><t>abc</t></r>")
        signatures = subtree_signatures(doc.root)
        element = doc.root.children[0]
        text = element.children[0]
        assert signatures[id(element)] != signatures[id(text)]


class TestPageSignature:
    def test_stable(self):
        assert page_signature("<html>x</html>") == page_signature(
            "<html>x</html>"
        )

    def test_sensitive_to_any_change(self):
        assert page_signature("<html>x</html>") != page_signature(
            "<html>y</html>"
        )

    def test_handles_unicode(self):
        assert isinstance(page_signature("héllo ✓"), int)


class TestSignatureValues:
    """Signatures are persisted in checkpoints and compared across
    processes, so their BLAKE2b values are pinned."""

    def test_document_signature_value_is_stable(self):
        document = parse(
            '<catalog k="v" a="b"><Product id="1"><name>camera</name>'
            "<price>9.50</price></Product>tail</catalog>"
        )
        assert document_signature(document) == 7179689330428373030

    def test_generated_catalog_signatures_are_stable(self):
        document = SiteGenerator(seed=7).catalog(products=5)
        assert document_signature(document) == 5083823626462614081
        assert page_signature(serialize(document)) == 1515765464599088640


class TestSignatureCache:
    def test_first_use_fills_the_cache_and_later_uses_read_it(
        self, monkeypatch
    ):
        document = parse("<r><a>t</a><b/></r>")
        assert document.signatures is None
        passes = []
        original = signature_module.subtree_signatures
        monkeypatch.setattr(
            signature_module,
            "subtree_signatures",
            lambda root: passes.append(root) or original(root),
        )
        signatures = document_signatures(document)
        assert document.signatures is signatures
        assert document_signatures(document) is signatures
        assert document_signature(document) == signatures[id(document.root)]
        assert passes == [document.root]
        assert signatures == original(document.root)

    def test_compute_delta_signs_each_version_once(self, monkeypatch):
        old = parse("<r><a>1</a><b/></r>")
        new = parse("<r><a>2</a><b/><c/></r>")
        XidSpace().assign_fresh(old.root)
        document_signature(old)
        document_signature(new)
        passes = []
        original = signature_module.subtree_signatures
        monkeypatch.setattr(
            signature_module,
            "subtree_signatures",
            lambda root: passes.append(root) or original(root),
        )
        delta = compute_delta(old, new, XidSpace(first_xid=100))
        assert passes == []
        assert len(delta.inserts) == 1 and len(delta.text_updates) == 1

    def test_compute_delta_signs_unsigned_versions(self):
        old = parse("<r><a>1</a></r>")
        new = parse("<r><a>2</a></r>")
        XidSpace().assign_fresh(old.root)
        compute_delta(old, new, XidSpace(first_xid=100))
        assert old.signatures == subtree_signatures(old.root)
        assert new.signatures == subtree_signatures(new.root)

    def test_new_documents_start_unsigned(self):
        signed = parse("<r><a>1</a></r>")
        XidSpace().assign_fresh(signed.root)
        document_signatures(signed)
        changed = parse("<r><a>2</a></r>")
        delta = compute_delta(signed, changed, XidSpace(first_xid=100))
        assert parse("<r/>").signatures is None
        assert copy_document(signed).signatures is None
        assert apply_delta(signed, delta).signatures is None
