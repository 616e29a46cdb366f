"""Unit tests for the SPARQL parser and evaluator."""

import inspect
import re
import sys
import threading

import pytest

from repro.rdf import KGLIDS_ONTOLOGY, Literal, QuadStore, RDF, URIRef
from repro.sparql import SPARQLEngine, parse_query
from repro.sparql.parser import SPARQLSyntaxError


@pytest.fixture()
def engine():
    store = QuadStore()
    onto = KGLIDS_ONTOLOGY
    graph_a, graph_b = URIRef("http://g/a"), URIRef("http://g/b")
    for i, (name, rows, graph) in enumerate(
        [("train", 100, graph_a), ("heart", 50, graph_a), ("games", 80, graph_b)]
    ):
        table = URIRef(f"http://data/{name}")
        store.add(table, RDF.type, onto.Table, graph=graph)
        store.add(table, onto.hasName, Literal(name), graph=graph)
        store.add(table, onto.hasTotalRows, Literal(rows), graph=graph)
    store.add(URIRef("http://data/train"), onto.isPartOf, URIRef("http://data/titanic"), graph=graph_a)
    store.add(URIRef("http://data/titanic"), onto.hasName, Literal("titanic"), graph=graph_a)
    store.annotate(
        URIRef("http://data/train"),
        onto.unionableWith,
        URIRef("http://data/heart"),
        onto.withCertainty,
        Literal(0.8),
        graph=graph_a,
    )
    return SPARQLEngine(store)


class TestParser:
    def test_parse_basic_select(self):
        query = parse_query("SELECT ?s WHERE { ?s a kglids:Table }")
        assert [str(v) for v in query.variables] == ["s"]
        assert len(query.where.elements) == 1

    def test_parse_prefix_declaration(self):
        query = parse_query("PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o }")
        pattern = query.where.elements[0]
        assert str(pattern.predicate) == "http://example.org/p"

    def test_parse_aggregate_group_order_limit(self):
        query = parse_query(
            "SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?g ORDER BY DESC(?n) LIMIT 5 OFFSET 1"
        )
        assert query.has_aggregates()
        assert query.limit == 5 and query.offset == 1
        assert query.group_by and query.order_by

    def test_parse_semicolon_and_comma_abbreviations(self):
        query = parse_query('SELECT * WHERE { ?s kglids:hasName "x" ; a kglids:Table . ?s kglids:reads ?a , ?b }')
        assert len(query.where.elements) == 4

    def test_unknown_prefix_raises(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_garbage_raises(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?s WHERE { ?s @@@ ?o }")

    def test_trailing_tokens_raise(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } garbage garbage")

    @pytest.mark.parametrize(
        "window",
        [
            "LIMIT -1",
            "OFFSET -2",
            "LIMIT +3",
            "LIMIT 2.5",
            "LIMIT 1e2",
            "LIMIT abc",
            "LIMIT ?s",
            "LIMIT",
            "LIMIT 2 LIMIT 3",
            "OFFSET 1 LIMIT 2 OFFSET 1",
        ],
    )
    def test_limit_and_offset_take_exactly_one_unsigned_integer(self, window):
        with pytest.raises(SPARQLSyntaxError):
            parse_query(f"SELECT ?s WHERE {{ ?s ?p ?o }} ORDER BY ?s {window}")

    def test_limit_and_offset_in_either_order(self):
        for window in ("LIMIT 0 OFFSET 3", "OFFSET 3 LIMIT 0"):
            query = parse_query(f"SELECT ?s WHERE {{ ?s ?p ?o }} {window}")
            assert (query.limit, query.offset) == (0, 3)
        assert parse_query("SELECT ?s WHERE { ?s ?p ?o }").offset == 0


class TestSyntaxErrorPositions:
    """A syntax error names the 1-based line and column of the offending
    token, or of the end of the text, as attributes and in its message."""

    MALFORMED = [
        ("SELECT ?s WHERE {\n  ?s ?p ?o .\n  FILTER(?o > )\n}", 3, 15, "unexpected token ')'"),
        ("SELECT ?s WHERE { ?s ?p ?o", 1, 27, "unterminated group pattern"),
        ("SELECT ?s WHERE {\n ?s ?p ?o ; $ }", 2, 13, "cannot tokenize"),
        ("SELECT ?s WHERE {\n\t?s nope:p ?o }", 2, 5, "unknown prefix 'nope'"),
    ]

    @pytest.mark.parametrize("text, line, column, message", MALFORMED)
    def test_parse_query_locates_the_error(self, text, line, column, message):
        with pytest.raises(SPARQLSyntaxError) as raised:
            parse_query(text)
        assert (raised.value.line, raised.value.column) == (line, column)
        assert str(raised.value).startswith(message)
        assert str(raised.value).endswith(f"at line {line}, column {column}")

    @pytest.mark.parametrize("text, line, column, message", MALFORMED)
    def test_engine_select_surfaces_the_position(self, engine, text, line, column, message):
        with pytest.raises(SPARQLSyntaxError, match=f"{re.escape(message)}.* at line {line}, column {column}$") as raised:
            engine.select(text)
        assert (raised.value.line, raised.value.column) == (line, column)


class TestEvaluation:
    def test_basic_match_and_filter(self, engine):
        result = engine.select(
            'SELECT ?t ?n WHERE { ?t kglids:hasName ?n . FILTER(contains(?n, "rain")) }'
        )
        assert len(result) == 1
        assert result.rows[0]["n"] == "train"

    def test_numeric_filter(self, engine):
        result = engine.select(
            "SELECT ?n WHERE { ?t kglids:hasTotalRows ?r . ?t kglids:hasName ?n . FILTER(?r >= 80) }"
        )
        assert {row["n"] for row in result.rows} == {"train", "games"}

    def test_boolean_operators_in_filter(self, engine):
        result = engine.select(
            'SELECT ?n WHERE { ?t kglids:hasName ?n . ?t kglids:hasTotalRows ?r . '
            'FILTER(?r > 60 && !contains(?n, "game")) }'
        )
        assert [row["n"] for row in result.rows] == ["train"]

    def test_optional_and_bound(self, engine):
        result = engine.select(
            "SELECT ?n WHERE { ?t kglids:hasName ?n . OPTIONAL { ?t kglids:isPartOf ?d } FILTER(!bound(?d)) }"
        )
        assert {row["n"] for row in result.rows} == {"heart", "games", "titanic"}

    def test_union(self, engine):
        result = engine.select(
            'SELECT ?n WHERE { ?t kglids:hasName ?n . { ?t kglids:hasTotalRows ?r . FILTER(?r = 50) } '
            'UNION { ?t kglids:hasTotalRows ?r2 . FILTER(?r2 = 80) } }'
        )
        assert {row["n"] for row in result.rows} == {"heart", "games"}

    def test_named_graph_variable(self, engine):
        result = engine.select("SELECT DISTINCT ?g WHERE { GRAPH ?g { ?t a kglids:Table } }")
        assert len(result) == 2

    def test_named_graph_constant(self, engine):
        result = engine.select(
            "SELECT ?t WHERE { GRAPH <http://g/b> { ?t a kglids:Table } }"
        )
        assert len(result) == 1

    def test_aggregate_count_group_by(self, engine):
        result = engine.select(
            "SELECT ?g (COUNT(?t) AS ?n) WHERE { GRAPH ?g { ?t a kglids:Table } } GROUP BY ?g ORDER BY DESC(?n)"
        )
        assert result.rows[0]["n"] == 2
        assert result.rows[1]["n"] == 1

    def test_aggregate_avg_without_group(self, engine):
        result = engine.select(
            "SELECT (AVG(?r) AS ?mean) WHERE { ?t kglids:hasTotalRows ?r }"
        )
        assert result.rows[0]["mean"] == pytest.approx((100 + 50 + 80) / 3)

    def test_order_by_limit_offset(self, engine):
        result = engine.select(
            "SELECT ?n WHERE { ?t kglids:hasName ?n . ?t kglids:hasTotalRows ?r } ORDER BY DESC(?r) LIMIT 1 OFFSET 1"
        )
        assert [row["n"] for row in result.rows] == ["games"]

    def test_quoted_triple_pattern(self, engine):
        result = engine.select(
            "SELECT ?o ?score WHERE { << ?s kglids:unionableWith ?o >> kglids:withCertainty ?score }"
        )
        assert len(result) == 1
        assert result.rows[0]["score"] == pytest.approx(0.8)

    def test_bind_and_functions(self, engine):
        result = engine.select(
            'SELECT ?upper WHERE { ?t kglids:hasName ?n . FILTER(strstarts(?n, "tr")) BIND(ucase(?n) AS ?upper) }'
        )
        assert result.rows[0]["upper"] == "TRAIN"

    def test_distinct(self, engine):
        result = engine.select("SELECT DISTINCT ?type WHERE { ?t a ?type }")
        assert len(result) == 1

    def test_select_star(self, engine):
        result = engine.select('SELECT * WHERE { ?t kglids:hasName "train" }')
        assert result.variables == ["t"]

    def test_to_table(self, engine):
        table = engine.select("SELECT ?n WHERE { ?t kglids:hasName ?n }").to_table()
        assert table.num_rows == 4
        assert table.column_names == ["n"]


class TestEngineSurface:
    def test_constructor_takes_store_and_prefixes_only(self):
        """One executor, no mode switches: nothing else to configure."""
        assert list(inspect.signature(SPARQLEngine).parameters) == ["store", "prefixes"]


class TestConcurrentReaders:
    """One engine is shared by every reader thread of a serving endpoint."""

    THREADS = 8
    CALLS = 60

    def test_concurrent_filter_queries_share_one_engine(self):
        """FILTER verdict tables are per evaluation, not per engine: queries
        racing on one engine neither crash nor lose counter updates.

        Every call sends a distinct text (a trailing comment), so each one
        evaluates; a second race repeats one text, and its evaluations are
        exactly the answer memo's misses."""
        store = QuadStore()
        for position in range(400):
            store.add(
                URIRef(f"http://e/s{position}"), URIRef("http://e/p"), Literal(position % 50)
            )
        many_filters = "SELECT ?s ?v WHERE { ?s <http://e/p> ?v . %s }" % " ".join(
            f"FILTER(?v > {bound})" for bound in range(40)
        )
        one_filter = "SELECT ?s ?v WHERE { ?s <http://e/p> ?v . FILTER(?v > 10) }"
        expected_rows, lookups = {}, {}
        for query in (many_filters, one_filter):
            alone = SPARQLEngine(store)
            expected_rows[query] = len(alone.select(query))
            counters = alone.stats()["filter_memo"]
            lookups[query] = counters["hits"] + counters["misses"]

        engine = SPARQLEngine(store)
        failures = []

        def reader(query, distinct):
            for call in range(self.CALLS):
                try:
                    text = f"{query} # {threading.get_ident()} {call}" if distinct else query
                    rows = len(engine.select(text))
                    if rows != expected_rows[query]:
                        failures.append(f"{rows} rows, expected {expected_rows[query]}")
                except Exception as error:  # noqa: BLE001 - the test reports any crash
                    failures.append(repr(error))

        def race(queries, distinct):
            threads = [threading.Thread(target=reader, args=(query, distinct)) for query in queries]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []

        def filter_lookups():
            counters = engine.stats()["filter_memo"]
            return counters["hits"] + counters["misses"]

        queries = [many_filters if k % 2 else one_filter for k in range(self.THREADS)]
        race(queries, distinct=True)
        assert filter_lookups() == self.CALLS * sum(lookups[query] for query in queries)
        assert engine.stats()["answers"] == {"hits": 0, "misses": self.THREADS * self.CALLS}

        before = filter_lookups()
        race([many_filters] * self.THREADS, distinct=False)
        answers = engine.stats()["answers"]
        assert answers["hits"] + answers["misses"] == 2 * self.THREADS * self.CALLS
        evaluations = answers["misses"] - self.THREADS * self.CALLS
        assert 1 <= evaluations <= self.THREADS  # a thread misses at most on its first call
        assert filter_lookups() - before == evaluations * lookups[many_filters]
