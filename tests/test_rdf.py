"""Unit tests for the RDF-star term model, quad store and serialization."""

import pytest

from repro.rdf import (
    DEFAULT_GRAPH,
    KGLIDS_ONTOLOGY,
    BNode,
    Literal,
    QuadStore,
    QuotedTriple,
    RDF,
    URIRef,
)
from repro.rdf.namespace import expand_qname
from repro.rdf.serialize import load_nquads, parse_nquads, save_nquads, serialize_nquads
from repro.rdf.terms import Triple, term_n3


class TestTerms:
    def test_uriref_n3_and_local_name(self):
        uri = URIRef("http://kglids.org/ontology/Table")
        assert uri.n3() == "<http://kglids.org/ontology/Table>"
        assert uri.local_name() == "Table"

    def test_bnode_n3(self):
        assert BNode("b1").n3() == "_:b1"

    def test_literal_datatypes_round_trip(self):
        assert Literal(5).to_python() == 5
        assert Literal(2.5).to_python() == 2.5
        assert Literal(True).to_python() is True
        assert Literal("text").to_python() == "text"

    def test_literal_escaping(self):
        literal = Literal('say "hi"\nplease')
        assert "\\n" in literal.n3()
        assert Literal.unescape('say \\"hi\\"\\nplease') == 'say "hi"\nplease'

    def test_literal_equality_and_hash(self):
        assert Literal(3) == Literal(3)
        assert Literal(3) != Literal("3", datatype=None)
        assert len({Literal(3), Literal(3)}) == 1

    def test_quoted_triple_n3(self):
        quoted = QuotedTriple(URIRef("a"), URIRef("b"), Literal(1))
        assert quoted.n3().startswith("<<") and quoted.n3().endswith(">>")
        assert quoted == QuotedTriple(URIRef("a"), URIRef("b"), Literal(1))

    def test_namespace_attribute_access(self):
        assert KGLIDS_ONTOLOGY.hasName == URIRef("http://kglids.org/ontology/hasName")
        assert expand_qname("kglids:Table") == URIRef("http://kglids.org/ontology/Table")
        with pytest.raises(ValueError):
            expand_qname("unknown:x")

    def test_term_n3_wraps_plain_values(self):
        assert term_n3("hello").startswith('"hello"')


@pytest.fixture()
def store():
    s = QuadStore()
    onto = KGLIDS_ONTOLOGY
    s.add(URIRef("t1"), RDF.type, onto.Table)
    s.add(URIRef("t1"), onto.hasName, Literal("train"))
    s.add(URIRef("t2"), RDF.type, onto.Table, graph=URIRef("g2"))
    return s


class TestQuadStore:
    def test_add_is_idempotent(self, store):
        before = len(store)
        assert store.add(URIRef("t1"), RDF.type, KGLIDS_ONTOLOGY.Table) is False
        assert len(store) == before

    def test_pattern_matching(self, store):
        assert len(list(store.triples(URIRef("t1"), None, None))) == 2
        assert len(list(store.triples(None, RDF.type, None))) == 2
        assert store.contains(URIRef("t2"), RDF.type, KGLIDS_ONTOLOGY.Table)

    def test_graph_scoping(self, store):
        assert store.num_triples(graph=URIRef("g2")) == 1
        assert store.num_triples(graph=DEFAULT_GRAPH) == 2
        assert len(list(store.triples(None, None, None, graph=URIRef("nope")))) == 0

    def test_objects_subjects_value(self, store):
        assert store.objects(URIRef("t1"), KGLIDS_ONTOLOGY.hasName) == [Literal("train")]
        assert URIRef("t1") in store.subjects(RDF.type, KGLIDS_ONTOLOGY.Table)
        assert store.value(URIRef("t1"), KGLIDS_ONTOLOGY.hasName) == "train"
        assert store.value(URIRef("t1"), KGLIDS_ONTOLOGY.hasVotes, default=0) == 0

    def test_remove(self, store):
        assert store.remove(URIRef("t1"), KGLIDS_ONTOLOGY.hasName, Literal("train"))
        assert not store.contains(URIRef("t1"), KGLIDS_ONTOLOGY.hasName, Literal("train"))
        assert not store.remove(URIRef("t1"), KGLIDS_ONTOLOGY.hasName, Literal("train"))

    def test_remove_graph(self, store):
        assert store.remove_graph(URIRef("g2"))
        assert store.num_triples(graph=URIRef("g2")) == 0

    def test_rdf_star_annotation(self, store):
        onto = KGLIDS_ONTOLOGY
        store.annotate(URIRef("c1"), onto.hasContentSimilarity, URIRef("c2"), onto.withCertainty, Literal(0.97))
        score = store.annotation(URIRef("c1"), onto.hasContentSimilarity, URIRef("c2"), onto.withCertainty)
        assert score == pytest.approx(0.97)
        # The base triple is asserted too.
        assert store.contains(URIRef("c1"), onto.hasContentSimilarity, URIRef("c2"))

    def test_statistics(self, store):
        stats = store.statistics()
        assert stats["num_triples"] == 3
        assert stats["num_graphs"] == 2
        assert stats["num_unique_predicates"] == 2
        assert store.estimated_size_bytes() > 0

    def test_add_many_bulk(self):
        s = QuadStore()
        inserted = s.add_many([(URIRef("a"), RDF.type, URIRef("b"))] * 3)
        assert inserted == 1
        assert s.commit_version == 1


class TestSerialization:
    def test_round_trip(self, store, tmp_path):
        store.annotate(
            URIRef("c1"),
            KGLIDS_ONTOLOGY.hasLabelSimilarity,
            URIRef("c2"),
            KGLIDS_ONTOLOGY.withCertainty,
            Literal(0.5),
        )
        path = save_nquads(store, tmp_path / "graph.nq")
        loaded = load_nquads(path)
        assert len(loaded) == len(store)
        assert loaded.contains(URIRef("t2"), RDF.type, KGLIDS_ONTOLOGY.Table, graph=URIRef("g2"))
        assert loaded.annotation(
            URIRef("c1"), KGLIDS_ONTOLOGY.hasLabelSimilarity, URIRef("c2"), KGLIDS_ONTOLOGY.withCertainty
        ) == pytest.approx(0.5)

    def test_parse_skips_comments_and_blank_lines(self):
        text = "# comment\n\n<a> <b> \"x\" .\n"
        store = parse_nquads(text)
        assert len(store) == 1

    def test_a_malformed_line_leaves_the_store_as_it_was(self, store):
        before, version = serialize_nquads(store), store.commit_version
        with pytest.raises(ValueError):
            parse_nquads('<a> <b> "x" .\n<a> <b> .\n', store)
        assert (serialize_nquads(store), store.commit_version) == (before, version)

    def test_serialize_is_sorted_text(self, store):
        text = serialize_nquads(store)
        lines = [line for line in text.splitlines() if line]
        assert lines == sorted(lines)
