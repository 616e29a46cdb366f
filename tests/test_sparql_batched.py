"""The SPARQL executor against its oracle, term dictionary and lookup memo.

Pins the contracts of the dictionary-encoded storage and the columnar
executor:

* **Randomized parity** — the production executor and the naive reference
  evaluator (``tests/sparql_oracle.py``) return the same rows on generated
  graphs and a zoo of query shapes, over both the in-memory and sqlite
  backends — in the same order wherever the query has an ORDER BY;
* **Term dictionary** — term <-> id interning is bidirectional, quoted
  triples are first-class, and ids round-trip byte-stably through a sqlite
  save/reopen (shard residency and version monotonicity across
  invalidation are pinned in ``tests/test_persistent_governor.py``);
* **Lookup memo** — a probe-mode join probes the index once per distinct
  key and reports hit/miss counters through the engine;
* **Answer memo** — a repeated text at one store version is answered from
  the engine's memo, and every answer still equals the oracle's across
  adds, removes, committed and rolled-back batches and a ``reopen``.
"""

from __future__ import annotations

import itertools
import random
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rdf import (
    BNode,
    Literal,
    QuadStore,
    QuotedTriple,
    TermDictionary,
    URIRef,
)
from repro.rdf.namespace import DEFAULT_PREFIXES, Namespace
from repro.rdf.serialize import serialize_nquads
from repro.sparql import SPARQLEngine
from repro.sparql import engine as engine_module
from repro.sparql import join
from repro.sparql.algebra import (
    Aggregate,
    GroupPattern,
    QuotedPattern,
    SelectQuery,
    TriplePattern,
    Var,
)
from repro.sparql.collate import aggregate_values
from repro.sparql.columnar import UNBOUND, QueryEncoder, Relation
from repro.sparql.parser import SPARQLSyntaxError, parse_query

import sparql_oracle

EX = "http://example.org/"


def _uri(name: str) -> URIRef:
    return URIRef(f"{EX}{name}")


def make_random_store(
    seed: int, store: QuadStore | None = None, annotations: int = 15
) -> QuadStore:
    """A small random multi-graph store with literals and annotations."""
    rng = random.Random(seed)
    if store is None:  # NB: an empty QuadStore is falsy (len() == 0)
        store = QuadStore()
    graphs = [_uri("g1"), _uri("g2")]
    subjects = [_uri(f"s{i}") for i in range(12)]
    predicates = [_uri(f"p{i}") for i in range(4)]
    for _ in range(120):
        subject = rng.choice(subjects)
        predicate = rng.choice(predicates)
        obj = rng.choice(subjects) if rng.random() < 0.6 else Literal(rng.randint(0, 9))
        store.add(subject, predicate, obj, graph=rng.choice(graphs))
    # RDF-star annotations: a handful by default, or enough for large buckets.
    annotation = _uri("certainty")
    for _ in range(annotations):
        subject = rng.choice(subjects)
        obj = rng.choice(subjects)
        store.annotate(
            subject,
            predicates[0],
            obj,
            annotation,
            Literal(round(rng.random(), 3)),
            graph=rng.choice(graphs),
        )
    # Names so FILTER / BIND string functions have text to chew on.
    has_name = _uri("name")
    for position, subject in enumerate(subjects):
        store.add(subject, has_name, Literal(f"node_{position}"), graph=graphs[0])
    # Graph names as ordinary terms, so ``GRAPH ?g`` can meet a ``?g`` that an
    # outer pattern bound (to a graph, or to g9 which is none) or that the
    # group itself reuses as a subject.
    for position, target in enumerate((graphs[1], graphs[0], _uri("g9"))):
        store.add(subjects[position], _uri("livesIn"), target, graph=graphs[0])
    store.add(graphs[0], has_name, Literal("first"), graph=graphs[0])
    store.add(graphs[0], has_name, Literal("first, seen from g2"), graph=graphs[1])
    store.add(graphs[1], has_name, Literal("second"), graph=graphs[0])
    return store


QUERY_SHAPES = [
    # chain join
    f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}",
    # star join with names
    f"SELECT ?s ?n ?x WHERE {{ ?s <{EX}name> ?n . ?s <{EX}p2> ?x . }}",
    # triangle-ish with repeated variable use
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p0> ?a . }}",
    # quoted annotation read with joined names
    f"""SELECT ?a ?b ?v ?n WHERE {{
        << ?a <{EX}p0> ?b >> <{EX}certainty> ?v .
        ?a <{EX}name> ?n .
    }}""",
    # OPTIONAL with a filter on boundness
    f"""SELECT ?s ?n ?x WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }}
    }}""",
    f"""SELECT ?s ?n WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }} FILTER(!bound(?x))
    }}""",
    # OPTIONAL variable reused by a later pattern
    f"""SELECT ?s ?x ?y WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }} ?x <{EX}p1> ?y .
    }}""",
    # UNION
    f"""SELECT ?s ?o WHERE {{
        {{ ?s <{EX}p0> ?o . }} UNION {{ ?s <{EX}p1> ?o . }}
    }}""",
    # named graph variable
    f"SELECT ?g ?s ?o WHERE {{ GRAPH ?g {{ ?s <{EX}p2> ?o . }} }}",
    # named graph constant
    f"SELECT ?s ?o WHERE {{ GRAPH <{EX}g2> {{ ?s <{EX}p0> ?o . }} }}",
    # FILTER on a numeric literal
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?o . FILTER(?o >= 5) }}",
    # BIND + string function + filter
    f"""SELECT ?s ?upper WHERE {{
        ?s <{EX}name> ?n . FILTER(strstarts(?n, "node_1")) BIND(ucase(?n) AS ?upper)
    }}""",
    # aggregate over a join
    f"""SELECT ?a (COUNT(?b) AS ?n) WHERE {{
        ?a <{EX}p0> ?b . ?a <{EX}name> ?m .
    }} GROUP BY ?a ORDER BY ?a""",
    # distinct projection
    f"SELECT DISTINCT ?a WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}",
    # multi-variable distinct over a duplicate-producing join
    f"SELECT DISTINCT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}",
    # --- collation-tail shapes ---
    # multi-aggregate GROUP BY with DISTINCT counting, ordered by an alias
    # (?b is a name literal so MIN/MAX compare homogeneous strings)
    f"""SELECT ?a (COUNT(DISTINCT ?b) AS ?n) (MIN(?b) AS ?lo) (MAX(?b) AS ?hi)
        WHERE {{ ?a <{EX}p0> ?x . ?x <{EX}name> ?b . }} GROUP BY ?a ORDER BY DESC(?n) ?a""",
    # SUM / AVG over float annotation values (order-sensitive float adds)
    f"""SELECT ?a (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE {{
        << ?a <{EX}p0> ?b >> <{EX}certainty> ?v .
    }} GROUP BY ?a ORDER BY ?a""",
    # ORDER BY with a sometimes-unbound (OPTIONAL) sort key
    f"""SELECT ?s ?n ?x WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }}
    }} ORDER BY ?x DESC(?n)""",
    # pushdown-eligible single-variable FILTER below a join
    f"SELECT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . FILTER(?c <= 4) }}",
    # FILTER written before the pattern that binds its variable
    f"SELECT ?s ?o WHERE {{ FILTER(?o > 2) ?s <{EX}p1> ?o . }}",
    # pushed filter over a variable an OPTIONAL leaves unbound mid-group
    f"""SELECT ?s ?x ?y WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }}
        FILTER(?x >= 0) ?x <{EX}p1> ?y .
    }}""",
    # three-branch UNION over identical layouts (aligned-prefix concat)
    f"""SELECT ?s ?o WHERE {{
        {{ ?s <{EX}p0> ?o . }} UNION {{ ?s <{EX}p1> ?o . }} UNION {{ ?s <{EX}p2> ?o . }}
    }}""",
    # UNION branches growing different variables, collated by ORDER BY
    f"""SELECT ?s ?o ?n WHERE {{
        {{ ?s <{EX}p2> ?o . }} UNION {{ ?s <{EX}name> ?n . }}
    }} ORDER BY ?s ?o ?n""",
    # aggregate over an empty match (no GROUP BY -> one all-empty group)
    f"""SELECT (COUNT(?x) AS ?n) (SUM(?o) AS ?total) WHERE {{
        ?s <{EX}p9> ?o . ?s <{EX}p0> ?x .
    }}""",
    # GROUP BY over an empty match (zero groups)
    f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ ?s <{EX}p9> ?o . }} GROUP BY ?s",
    # SELECT * with an OPTIONAL tail
    f"SELECT * WHERE {{ ?s <{EX}p2> ?o . OPTIONAL {{ ?o <{EX}name> ?n . }} }}",
    # --- GRAPH ?g shapes: the group runs once across the graphs ---
    # two patterns sharing a variable: the join stays inside one graph
    f"SELECT ?g ?a ?b ?c WHERE {{ GRAPH ?g {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }} }}",
    # disconnected patterns still share the graph
    f"SELECT ?g ?a ?c WHERE {{ GRAPH ?g {{ ?a <{EX}p3> ?b . ?c <{EX}livesIn> ?d . }} }}",
    # ?g pre-bound by an outer pattern (one value names no graph)
    f"SELECT ?s ?g ?x ?o WHERE {{ ?s <{EX}livesIn> ?g . GRAPH ?g {{ ?x <{EX}p2> ?o . }} }}",
    # ... and left unbound by an outer OPTIONAL
    f"""SELECT ?s ?g ?x WHERE {{
        ?s <{EX}p3> ?y . OPTIONAL {{ ?s <{EX}livesIn> ?g . }} GRAPH ?g {{ ?x <{EX}p2> ?s . }}
    }}""",
    # ?g reused as a subject and as an object
    f"SELECT ?g ?n WHERE {{ GRAPH ?g {{ ?g <{EX}name> ?n . }} }}",
    f"SELECT ?g ?s WHERE {{ GRAPH ?g {{ ?s <{EX}livesIn> ?g . }} }}",
    # OPTIONAL and FILTER(?g …) inside the group
    f"""SELECT ?g ?s ?x WHERE {{ GRAPH ?g {{
        ?s <{EX}p1> ?o . OPTIONAL {{ ?s <{EX}p3> ?x . }} FILTER(?g != <{EX}g1>)
    }} }}""",
    # groups that do not open with a triple pattern: ?g is seeded per graph
    f"SELECT ?g WHERE {{ GRAPH ?g {{ }} }}",
    f"SELECT ?g ?s ?x WHERE {{ ?s <{EX}livesIn> ?t . GRAPH ?g {{ OPTIONAL {{ ?s <{EX}p3> ?x . }} }} }}",
    f"SELECT ?g ?s ?x WHERE {{ ?s <{EX}livesIn> ?g . GRAPH ?g {{ OPTIONAL {{ ?s <{EX}p0> ?x . }} }} }}",
    f"""SELECT ?g ?s ?o WHERE {{ GRAPH ?g {{
        {{ ?s <{EX}p0> ?o . }} UNION {{ ?s <{EX}livesIn> ?o . }}
    }} }}""",
    # quoted annotations per graph; a float SUM grouped by ?g
    f"""SELECT ?g ?a ?v WHERE {{ GRAPH ?g {{
        << ?a <{EX}p0> ?b >> <{EX}certainty> ?v . ?a <{EX}p1> ?c .
    }} }}""",
    f"""SELECT ?g (SUM(?v) AS ?total) (COUNT(?a) AS ?n) WHERE {{ GRAPH ?g {{
        << ?a <{EX}p0> ?b >> <{EX}certainty> ?v .
    }} }} GROUP BY ?g ORDER BY ?g""",
    # COUNT DISTINCT across graphs joined to the default graph (the
    # top-k-libraries roll-up's shape)
    f"""SELECT ?n (COUNT(DISTINCT ?b) AS ?k) WHERE {{
        GRAPH ?g {{ ?a <{EX}p0> ?b . ?a <{EX}p2> ?c . }} ?c <{EX}name> ?n .
    }} GROUP BY ?n ORDER BY DESC(?k) ?n""",
    # --- ORDER BY … LIMIT / OFFSET: the top-k cut and the window ---
    # the serve workload's ranked-annotation shape; the ?c fan-out repeats
    # each ?v, so on most stores the cut lands inside a run of ties
    f"""SELECT ?a ?b ?v WHERE {{
        << ?a <{EX}p0> ?b >> <{EX}certainty> ?v . ?a <{EX}p1> ?c .
    }} ORDER BY DESC(?v) ?a ?b LIMIT 4""",
    f"""SELECT ?a ?b ?v WHERE {{
        << ?a <{EX}p0> ?b >> <{EX}certainty> ?v . ?a <{EX}p1> ?c .
    }} ORDER BY DESC(?v) ?a ?b OFFSET 1 LIMIT 4""",
    # first key sometimes unbound (OPTIONAL), a descending second key
    f"""SELECT ?s ?n ?x WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }}
    }} ORDER BY ?x DESC(?n) LIMIT 5""",
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?o . }} ORDER BY ?o ?s OFFSET 2 LIMIT 3",
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?o . }} ORDER BY ?o ?s LIMIT 0",
    # OFFSET past the end, with and without LIMIT
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?o . }} ORDER BY DESC(?o) ?s OFFSET 500 LIMIT 3",
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?o . }} ORDER BY DESC(?o) ?s OFFSET 500",
    # DISTINCT: the window counts distinct rows, so no cut before dedup
    f"SELECT DISTINCT ?a WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }} ORDER BY ?a LIMIT 3",
    # SELECT *: ?o is bound only in rows past the LIMIT (an unbound ?n ranks
    # as the string "None", below every name), yet it is a result variable
    f"""SELECT * WHERE {{
        {{ ?s <{EX}name> ?n . }} UNION {{ ?s <{EX}p2> ?o . }}
    }} ORDER BY DESC(?n) LIMIT 2""",
    # --- quoted subjects with a constant inner part: the scan and the probe
    # read one quoted-subject or quoted-object bucket ---
    f"""SELECT ?b (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE {{
        << <{EX}s1> <{EX}p0> ?b >> <{EX}certainty> ?v .
    }} GROUP BY ?b ORDER BY ?b""",
    f"""SELECT ?a (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE {{
        << ?a <{EX}p0> <{EX}s2> >> <{EX}certainty> ?v .
    }} GROUP BY ?a ORDER BY ?a""",
    f"""SELECT (SUM(?v) AS ?total) (COUNT(?b) AS ?n) WHERE {{
        << <{EX}s1> <{EX}p0> ?b >> <{EX}certainty> ?v .
    }}""",
    # constant inner parts joined with plain patterns
    f"""SELECT ?b ?v ?n WHERE {{
        << <{EX}s1> <{EX}p0> ?b >> <{EX}certainty> ?v . ?b <{EX}name> ?n .
    }}""",
    f"""SELECT ?a ?v WHERE {{
        << ?a <{EX}p0> <{EX}s2> >> <{EX}certainty> ?v . ?a <{EX}p1> ?c .
    }} ORDER BY DESC(?v) ?a LIMIT 4""",
    # two annotation patterns: the second probes with its inner subject
    # bound by the first and its inner object constant
    f"""SELECT ?b (SUM(?w) AS ?total) WHERE {{
        << <{EX}s1> <{EX}p0> ?b >> <{EX}certainty> ?v .
        << ?b <{EX}p0> <{EX}s2> >> <{EX}certainty> ?w .
    }} GROUP BY ?b ORDER BY ?b""",
    # per graph, with a float SUM
    f"""SELECT ?g (SUM(?v) AS ?total) (COUNT(?a) AS ?n) WHERE {{ GRAPH ?g {{
        << ?a <{EX}p0> <{EX}s2> >> <{EX}certainty> ?v .
    }} }} GROUP BY ?g ORDER BY ?g""",
    # --- one join path: shapes the compiled plan serves with equality checks
    # and unbound-slot writes (rows on every store: add_join_path_rows) ---
    # a new variable repeated in one pattern
    f"SELECT ?a WHERE {{ ?a <{EX}p0> ?a . }}",
    # ... inside a quoted subject
    f"SELECT ?a ?v WHERE {{ << ?a <{EX}p0> ?a >> <{EX}certainty> ?v . }}",
    # ... between a quoted part and the outer object
    f"SELECT ?a ?b ?p WHERE {{ << ?a <{EX}p0> ?b >> ?p ?a . }}",
    # an OPTIONAL-unbound cell as one of two join keys: the rows without ?x
    # join in scan mode (a 3-row constant-only scan) ...
    f"""SELECT ?s ?n ?x WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }} ?s <{EX}livesIn> ?x .
    }}""",
    # ... and in probe mode (no constant: every triple is a candidate)
    f"""SELECT ?s ?p ?x WHERE {{
        ?s <{EX}livesIn> ?t . OPTIONAL {{ ?s <{EX}p3> ?x . }} ?s ?p ?x .
    }}""",
]
#: Where the one-join-path shapes start in :data:`QUERY_SHAPES`.
JOIN_PATH_SHAPES = range(56, len(QUERY_SHAPES))


def ordered_key(result):
    """Rows in result order, each as a binding-order-insensitive typed key
    (``repr`` keeps ``5`` / ``5.0`` / ``"5"`` and float digits apart)."""
    return [tuple(sorted((key, repr(value)) for key, value in row.items())) for row in result.rows]


def rows_key(result):
    """Order-insensitive row multiset."""
    return sorted(ordered_key(result))


def assert_matches_oracle(store, query):
    """Production == oracle: same variables, same rows, same order if ordered."""
    result = SPARQLEngine(store).select(query)
    expected = sparql_oracle.select(store, query)
    assert result.variables == expected.variables
    if "ORDER BY" in query:
        assert ordered_key(result) == ordered_key(expected)
    else:
        assert rows_key(result) == rows_key(expected)
    return result


@pytest.fixture(
    scope="module",
    params=[
        ("memory", 3), ("memory", 11), ("memory", 42), ("sqlite", 7), ("sqlite", 19),
        ("faulted-memory", 3), ("faulted-sqlite", 7),
        # Every quoted-subject and quoted-object bucket in each graph holds
        # over 64 annotations (~100).
        ("memory", 23, 2400), ("sqlite", 23, 2400),
    ],
    ids=lambda param: "-".join(map(str, param)),
)
def random_store(request, tmp_path_factory, open_store):
    backend, seed, *annotations = request.param
    store = make_random_store(
        seed, open_store(backend, tmp_path_factory.mktemp("parity") / "s.sqlite3"), *annotations
    )
    assert serialize_nquads(store) == serialize_nquads(make_random_store(seed, None, *annotations))
    if annotations:
        for _, index in store.backend.items():
            buckets = [*index.by_quoted_subject.values(), *index.by_quoted_object.values()]
            assert min(map(len, buckets)) > 64
    yield store
    store.close()


class TestRandomizedParity:
    @pytest.mark.parametrize("shape", range(len(QUERY_SHAPES)))
    def test_production_matches_oracle(self, random_store, shape):
        assert_matches_oracle(random_store, QUERY_SHAPES[shape])

    @pytest.mark.parametrize("seed", [5])
    def test_parity_after_reopen(self, seed, tmp_path):
        """A reopened store (ids decoded from the terms table) stays identical."""
        path = tmp_path / "s.sqlite3"
        original = make_random_store(seed, QuadStore.sqlite(path))
        expected = {
            query: rows_key(SPARQLEngine(original).select(query))
            for query in QUERY_SHAPES
        }
        original.close()
        reopened = QuadStore.sqlite(path)
        for query, rows in expected.items():
            assert rows_key(assert_matches_oracle(reopened, query)) == rows
        reopened.close()


class TestGraphVariableOverSparseGraphs:
    """``GRAPH ?g`` over a store whose graphs are empty, tiny or absent."""

    QUERIES = [
        f"SELECT ?g ?s ?o WHERE {{ GRAPH ?g {{ ?s <{EX}p0> ?o . }} }}",
        f"SELECT ?g ?s ?c WHERE {{ GRAPH ?g {{ ?s <{EX}p0> ?o . ?o <{EX}p1> ?c . }} }}",
        f"SELECT ?g (COUNT(?s) AS ?n) WHERE {{ GRAPH ?g {{ ?s ?p ?o . }} }} GROUP BY ?g ORDER BY ?g",
        f"SELECT ?g WHERE {{ GRAPH ?g {{ }} }}",
    ]

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "faulted-memory", "faulted-sqlite"])
    def test_empty_and_single_triple_graphs(self, backend, tmp_path, open_store):
        store = open_store(backend, tmp_path / "s.sqlite3")
        for query in self.QUERIES:  # no graph at all
            assert len(assert_matches_oracle(store, query)) == 0
        a, b, c = _uri("a"), _uri("b"), _uri("c")
        store.add(a, _uri("p0"), b, graph=_uri("single"))
        store.add(a, _uri("p0"), b, graph=_uri("emptied"))
        store.remove(a, _uri("p0"), b, graph=_uri("emptied"))
        store.add(a, _uri("p0"), b, graph=_uri("pair"))
        store.add(b, _uri("p1"), c, graph=_uri("pair"))
        counts = [len(assert_matches_oracle(store, query)) for query in self.QUERIES]
        assert counts[0] == 2 and counts[1] == 1
        store.close()


class TestDictionaryAwareDistinct:
    """DISTINCT deduplicates on id tuples and decodes only the survivors."""

    DISTINCT_QUERY = f"SELECT DISTINCT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}"

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_distinct_parity_with_oracle(self, seed):
        store = make_random_store(seed)
        distinct = assert_matches_oracle(store, self.DISTINCT_QUERY)
        # DISTINCT really deduplicated (the join fans out duplicates).
        plain = SPARQLEngine(store).select(self.DISTINCT_QUERY.replace("DISTINCT ", ""))
        assert len(distinct) <= len(plain)
        assert len(set(map(str, distinct.rows))) == len(distinct)

    def test_id_distinct_value_equal_rows_still_collapse(self):
        """Two interned terms projecting to the same Python value collapse.

        ``Literal(5)`` and ``Literal("5")`` hold different dictionary ids
        but both project to ``str(...) == "5"`` under DISTINCT's value
        keying — the id-space dedup alone would keep both, so the
        value-level guard must collapse them exactly like the oracle does.
        """
        store = QuadStore()
        a, b1, b2 = _uri("a"), _uri("b1"), _uri("b2")
        store.add(a, _uri("p0"), b1)
        store.add(a, _uri("p0"), b2)
        store.add(b1, _uri("p1"), Literal(5))
        store.add(b2, _uri("p1"), Literal("5"))
        result = SPARQLEngine(store).select(self.DISTINCT_QUERY)
        expected = sparql_oracle.select(store, self.DISTINCT_QUERY)
        assert len(result) == len(expected) == 1
        assert str(result.rows[0]["c"]) == str(expected.rows[0]["c"]) == "5"

    @pytest.mark.parametrize("seed", [7])
    def test_distinct_with_offset_and_limit(self, seed):
        store = make_random_store(seed)
        query = self.DISTINCT_QUERY + " OFFSET 2 LIMIT 3"
        full = sparql_oracle.select(store, self.DISTINCT_QUERY)
        windowed = SPARQLEngine(store).select(query)
        assert len(windowed) == min(3, max(0, len(full) - 2))
        # The window is a slice of the distinct rows, not of the raw rows.
        window_keys = rows_key(windowed)
        assert all(key in rows_key(full) for key in window_keys)


class TestTermDictionary:
    def test_encode_decode_round_trip(self):
        dictionary = TermDictionary()
        terms = [_uri("a"), Literal("x"), Literal(5), _uri("b")]
        ids = [dictionary.encode(term) for term in terms]
        assert len(set(ids)) == len(ids)
        for term, term_id in zip(terms, ids):
            assert dictionary.decode(term_id) == term
            assert dictionary.lookup(term) == term_id
        assert dictionary.encode(terms[0]) == ids[0]  # interning is stable
        assert dictionary.lookup(_uri("missing")) is None

    def test_quoted_triples_are_first_class(self):
        dictionary = TermDictionary()
        quoted = QuotedTriple(_uri("a"), _uri("p"), Literal(1))
        quoted_id = dictionary.encode(quoted)
        parts = dictionary.quoted_parts(quoted_id)
        assert parts == (
            dictionary.lookup(_uri("a")),
            dictionary.lookup(_uri("p")),
            dictionary.lookup(Literal(1)),
        )
        assert dictionary.quoted_id(parts) == quoted_id
        assert dictionary.lookup(QuotedTriple(_uri("a"), _uri("p"), Literal(1))) == quoted_id
        assert dictionary.quoted_parts(dictionary.encode(_uri("a"))) is None

    def test_ids_round_trip_through_sqlite(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        store = QuadStore.sqlite(path)
        terms = [_uri("a"), _uri("p"), Literal("hello\nworld"), Literal(2.5)]
        store.add(terms[0], terms[1], terms[2])
        store.add(terms[0], terms[1], terms[3])
        store.annotate(terms[0], terms[1], terms[3], _uri("score"), Literal(0.9))
        recorded = {str(term): store.dictionary.lookup(term) for term in terms}
        quoted = QuotedTriple(terms[0], terms[1], terms[3])
        recorded_quoted = store.dictionary.lookup(quoted)
        store.close()

        reopened = QuadStore.sqlite(path)
        for term in terms:
            assert reopened.dictionary.lookup(term) == recorded[str(term)]
            assert reopened.dictionary.decode(recorded[str(term)]) == term
        assert reopened.dictionary.lookup(quoted) == recorded_quoted
        assert reopened.dictionary.quoted_parts(recorded_quoted) == (
            recorded[str(terms[0])],
            recorded[str(terms[1])],
            recorded[str(terms[3])],
        )
        reopened.close()

    #: Every ``open_store`` configuration, plus a sqlite store closed and
    #: reopened before it is read.
    ONE_RULE_CONFIGURATIONS = ["memory", "sqlite", "faulted-memory", "faulted-sqlite", "reopened-sqlite"]

    @staticmethod
    def _one_rule_store(configuration, path, open_store, triples) -> QuadStore:
        store = open_store(configuration.replace("reopened-", ""), path)
        for triple in triples:
            store.add(*triple)
        if configuration.startswith("reopened-"):
            store.close()
            store = QuadStore.sqlite(path)
        return store

    @pytest.mark.parametrize("configuration", ONE_RULE_CONFIGURATIONS)
    def test_different_kinds_never_share_an_id(self, configuration, open_store, tmp_path):
        """``URIRef("x")``, ``BNode("x")`` and ``"x"`` are three terms: three
        ids, and the triples they are the objects of stay apart."""
        s, p, q = _uri("s"), _uri("p"), _uri("q")
        triples = [(s, p, URIRef("x")), (s, q, BNode("x")), (s, q, "x")]
        store = self._one_rule_store(configuration, tmp_path / "s.sqlite3", open_store, triples)
        try:
            ids = [store.dictionary.lookup(term) for term in (URIRef("x"), BNode("x"), "x")]
            assert None not in ids and len(set(ids)) == 3
            assert len(store) == 3
            assert [term.n3() for term in store.objects(s, p)] == ["<x>"]
            assert sorted(term.n3() for term in store.objects(s, q)) == ['"x"', "_:x"]
            assert sorted(type(term).__name__ for term in store.objects(s, q)) == ["BNode", "Literal"]
        finally:
            store.close()

    @pytest.mark.parametrize("configuration", ONE_RULE_CONFIGURATIONS)
    def test_a_plain_value_is_the_literal_it_spells(self, configuration, open_store, tmp_path):
        """``"5"`` and ``Literal("5")`` share one id that decodes to
        ``Literal("5")``; ``URIRef("5")`` is another term."""
        s, p = _uri("s"), _uri("p")
        triples = [(s, p, "5"), (s, p, Literal("5")), (s, p, URIRef("5"))]
        store = self._one_rule_store(configuration, tmp_path / "s.sqlite3", open_store, triples)
        try:
            dictionary = store.dictionary
            literal_id = dictionary.lookup("5")
            assert literal_id == dictionary.lookup(Literal("5")) != dictionary.lookup(URIRef("5"))
            decoded = dictionary.decode(literal_id)
            assert decoded.__class__ is Literal and decoded == Literal("5")
            assert len(store) == 2
            objects = store.objects(s, p)
            assert sorted((type(term).__name__, term.n3()) for term in objects) == [
                ("Literal", '"5"'),
                ("URIRef", "<5>"),
            ]
        finally:
            store.close()

    @pytest.mark.parametrize("configuration", ONE_RULE_CONFIGURATIONS)
    def test_a_bound_value_joins_the_literal_it_spells(self, configuration, open_store, tmp_path):
        """A BIND result is a plain value; it joins the stored literal of the
        same spelling on every configuration."""
        triples = [
            (_uri("a"), _uri("name"), Literal("node_1")),
            (_uri("b"), _uri("label"), Literal("NODE_1")),
        ]
        store = self._one_rule_store(configuration, tmp_path / "s.sqlite3", open_store, triples)
        query = f"SELECT ?s ?t ?u WHERE {{ ?s <{EX}name> ?n . BIND(ucase(?n) AS ?u) ?t <{EX}label> ?u }}"
        try:
            assert SPARQLEngine(store).select(query).rows == [{"s": _uri("a"), "t": _uri("b"), "u": "NODE_1"}]
        finally:
            store.close()


class TestLookupMemo:
    def test_engine_exposes_memo_counters(self):
        store = make_random_store(3)
        engine = SPARQLEngine(store)
        engine.select(QUERY_SHAPES[0])
        assert engine.stats()["pattern_memo"]["misses"] > 0

    def test_probe_mode_join_probes_once_per_distinct_key(self, monkeypatch):
        """20 rows over 3 hubs join a 203-row predicate: probe mode, 3 probes."""
        store = QuadStore()
        for position in range(20):
            store.add(_uri(f"a{position}"), _uri("p0"), _uri(f"hub{position % 3}"))
        for hub in range(3):
            store.add(_uri(f"hub{hub}"), _uri("p1"), Literal(hub))
        for position in range(200):
            store.add(_uri(f"x{position}"), _uri("p1"), Literal(position))
        probed = []

        def counting_probe(ctx, plan):
            probe = compile_probe(ctx, plan)
            return lambda key: probed.append(key) or probe(key)

        compile_probe = join.compile_probe
        monkeypatch.setattr(join, "compile_probe", counting_probe)
        query = f"SELECT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}"
        engine = SPARQLEngine(store)
        result = engine.select(query)
        assert len(result) == 20
        assert rows_key(result) == rows_key(sparql_oracle.select(store, query))
        # The leading pattern probes once, with the empty key.
        assert probed[0] == () and sorted(probed[1:]) == sorted(set(probed[1:]))
        assert len(probed) == 1 + 3
        assert engine.stats()["pattern_memo"] == {"hits": 20 - 3, "misses": 1 + 3}


class TestGroupKeyTyping:
    """GROUP BY keys on decoded typed values, not their string forms."""

    GROUP_QUERY = f"SELECT ?o (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}p> ?o . }} GROUP BY ?o"

    def _store(self, *objects):
        store = QuadStore()
        for position, obj in enumerate(objects):
            store.add(_uri(f"s{position}"), _uri("p"), obj)
        return store

    def _results(self, store):
        """The production answer and the oracle's."""
        return [
            SPARQLEngine(store).select(self.GROUP_QUERY),
            sparql_oracle.select(store, self.GROUP_QUERY),
        ]

    def test_int_and_string_literals_group_separately(self):
        """Literal(5) and Literal("5") must not collide into one group (the
        old ``str()`` group key collapsed them)."""
        store = self._store(Literal(5), Literal("5"))
        for result in self._results(store):
            assert len(result) == 2
            assert sorted(row["n"] for row in result.rows) == [1, 1]

    def test_equal_numeric_values_share_a_group(self):
        """5 and 5.0 are the same value under dict-key equality — one group."""
        store = self._store(Literal(5), Literal(5.0))
        for result in self._results(store):
            assert len(result) == 1
            assert result.rows[0]["n"] == 2

    def test_nan_values_form_one_group(self):
        """NaN != NaN would split every NaN row into its own group; the
        shared NaN sentinel keeps them together."""
        store = self._store(Literal(float("nan")), Literal(float("nan")))
        for result in self._results(store):
            assert len(result) == 1
            assert result.rows[0]["n"] == 2


class TestFloatSums:
    """SUM / AVG over values that ``math.fsum`` refuses: an answer, not an
    error, and one that does not depend on the rows' order."""

    SUM_QUERY = f"SELECT (SUM(?o) AS ?total) (AVG(?o) AS ?mean) WHERE {{ ?s <{EX}p> ?o . }}"

    @pytest.mark.parametrize(
        "values, answer",
        [
            ((float("inf"), float("-inf"), 1.0), ["nan", "nan"]),
            ((1e308, 1e308), ["inf", "inf"]),
            # 1e308 + 1e308 overflows, 1e308 - 1e308 does not: sorted order
            ((1e308, 1e308, -1e308), ["1e+308", "3.333333333333333e+307"]),
        ],
        ids=["opposite-infinities", "overflow", "overflowing-partial"],
    )
    def test_sums_past_exact_rounding(self, values, answer):
        store = QuadStore()
        for position, value in enumerate(values):
            store.add(_uri(f"s{position}"), _uri("p"), Literal(value))
        for result in (
            SPARQLEngine(store).select(self.SUM_QUERY),
            sparql_oracle.select(store, self.SUM_QUERY),
        ):
            assert [repr(result.rows[0]["total"]), repr(result.rows[0]["mean"])] == answer
        total, mean = (Aggregate(name, Var("o"), False, Var(name)) for name in ("sum", "avg"))
        for order in itertools.permutations(values):
            assert [repr(aggregate_values(total, order)), repr(aggregate_values(mean, order))] == answer


class TestFilterPushdown:
    """Single-variable FILTERs run below the join with memoized verdicts."""

    FILTER_QUERY = (
        f"SELECT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . FILTER(?c <= 4) }}"
    )

    def test_pushdown_parity_and_memo_counters(self):
        store = make_random_store(11)
        engine = SPARQLEngine(store)
        result = engine.select(self.FILTER_QUERY)
        assert rows_key(result) == rows_key(sparql_oracle.select(store, self.FILTER_QUERY))
        stats = engine.stats()
        assert stats["filter_memo"]["misses"] > 0
        # The group-end re-check of already-pushed rows is pure memo hits.
        assert stats["filter_memo"]["hits"] > 0
        assert set(stats["pattern_memo"]) == {"hits", "misses"}

    def test_explain_annotates_pushdown(self):
        store = make_random_store(3)
        plan = SPARQLEngine(store).explain(self.FILTER_QUERY)
        assert "FilterClause [pushdown ?c]" in plan

    def test_multi_variable_filters_are_not_pushed(self):
        query = f"SELECT ?a ?b WHERE {{ ?a <{EX}p1> ?b . FILTER(?a != ?b) }}"
        store = make_random_store(7)
        engine = SPARQLEngine(store)
        assert not any("pushdown" in line for line in engine.explain(query))
        assert_matches_oracle(store, query)

    def test_counters_accumulate_across_queries(self):
        store = make_random_store(11)
        engine = SPARQLEngine(store)
        engine.select(self.FILTER_QUERY)
        first = engine.stats()["filter_memo"]
        # A distinct text (a trailing comment) at the same version, then the
        # first text at a new version: each is a fresh evaluation.
        engine.select(self.FILTER_QUERY + " # again")
        store.add(_uri("s0"), _uri("unrelated"), Literal(0), graph=_uri("g1"))
        engine.select(self.FILTER_QUERY)
        # Verdict tables are per evaluation, so each run repeats the first.
        assert engine.stats()["filter_memo"] == {
            name: 3 * value for name, value in first.items()
        }
        assert engine.stats()["answers"] == {"hits": 0, "misses": 3}
        # A repeated text at one version is answered from the answer memo:
        # no verdict is looked up again.
        engine.select(self.FILTER_QUERY)
        assert engine.stats()["filter_memo"] == {
            name: 3 * value for name, value in first.items()
        }
        assert engine.stats()["answers"] == {"hits": 1, "misses": 3}


class TestConcatFastPath:
    """UNION concat pads aligned-prefix layouts without per-cell re-picks."""

    def test_aligned_prefix_padding(self):
        base = Relation(("a", "b"), [(1, 2), (3, 4)])
        grown = Relation(("a", "b", "c"), [(5, 6, 7)])
        merged = Relation.concat([grown, base])
        assert merged.variables == ("a", "b", "c")
        assert merged.rows == [(5, 6, 7), (1, 2, UNBOUND), (3, 4, UNBOUND)]

    def test_misaligned_layouts_fall_back_to_slot_pick(self):
        left = Relation(("a", "b"), [(1, 2)])
        right = Relation(("b", "c"), [(8, 9)])
        merged = Relation.concat([left, right])
        assert merged.variables == ("a", "b", "c")
        assert merged.rows == [(1, 2, UNBOUND), (UNBOUND, 8, 9)]

    def test_empty_input(self):
        merged = Relation.concat([])
        assert merged.variables == ()
        assert merged.rows == []


class TestVectorizedCollation:
    """Ordered results match the oracle row-for-row, not just as sets."""

    ORDER_QUERY = f"""SELECT ?s ?n ?x WHERE {{
        ?s <{EX}name> ?n . OPTIONAL {{ ?s <{EX}p3> ?x . }}
    }} ORDER BY ?x DESC(?n)"""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_order_by_rows_identical_to_oracle(self, seed):
        store = make_random_store(seed)
        result = SPARQLEngine(store).select(self.ORDER_QUERY)
        assert result.rows == sparql_oracle.select(store, self.ORDER_QUERY).rows

    def test_sort_ranks_respect_value_collisions(self):
        """Distinct ids with equal values must share a sort rank (5 vs 5.0),
        and numbers still sort ahead of strings."""
        store = QuadStore()
        objects = [Literal("5"), Literal(5), Literal(7), Literal(5.0), Literal("10")]
        for position, obj in enumerate(objects):
            store.add(_uri(f"s{position}"), _uri("p"), obj)
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . }} ORDER BY ?o ?s"
        result = SPARQLEngine(store).select(query)
        assert result.rows == sparql_oracle.select(store, query).rows
        assert [str(row["o"]) for row in result.rows] == ["5", "5.0", "7", "10", "5"]

    def test_vectorized_distinct_preserves_first_seen_order(self):
        """Above the >64-row threshold the id-space dedup kicks in; it must
        keep first-occurrence order exactly like the value-level loop."""
        store = QuadStore()
        for position in range(100):
            store.add(_uri(f"s{position:03d}"), _uri("p"), Literal(position % 7))
        query = f"SELECT DISTINCT ?o WHERE {{ ?s <{EX}p> ?o . }}"
        result = SPARQLEngine(store).select(query)
        assert result.rows == sparql_oracle.select(store, query).rows
        assert len(result) == 7


class TestTopKCollation:
    """``ORDER BY … LIMIT`` sorts and decodes only rows that can reach the
    result, and answers exactly the prefix of the full sort."""

    def test_value_collision_at_the_cut(self):
        """5 and 5.0 share a rank (and "5" does not) wherever the cut falls;
        rows tied on every key keep their order from the full sort."""
        store = QuadStore()
        objects = [
            Literal(7), Literal(5), Literal("5"), Literal(5.0),
            Literal(3), Literal(5), Literal("10"), Literal(5.0),
        ]
        for position, obj in enumerate(objects):
            store.add(_uri(f"s{position}"), _uri("p"), obj)
        engine = SPARQLEngine(store)
        for order in ("?o ?s", "DESC(?o) ?s", "?o DESC(?s)", "?o", "DESC(?o)"):
            query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . }} ORDER BY {order}"
            full = ordered_key(engine.select(query))
            for offset in (0, 2):
                for limit in range(len(objects) + 1):
                    window = f"{query} OFFSET {offset} LIMIT {limit}"
                    assert ordered_key(engine.select(window)) == full[offset : offset + limit]
                    if "?s" in order:  # a total order: the oracle agrees row for row
                        assert_matches_oracle(store, window)

    @pytest.mark.parametrize(
        "window, start, end",
        [("LIMIT 1", 0, 1), ("LIMIT 7", 0, 7), ("OFFSET 3 LIMIT 5", 3, 8), ("OFFSET 4", 4, None)],
    )
    def test_limit_without_order_by_is_a_prefix(self, random_store, window, start, end):
        """Without ORDER BY the window slices the relation's own order."""
        query = f"SELECT ?a ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}"
        engine = SPARQLEngine(random_store)
        full = ordered_key(engine.select(query))
        assert len(full) > 8
        assert ordered_key(engine.select(f"{query} {window}")) == full[start:end]

    def test_each_id_decodes_once_and_cut_rows_never_decode(self, monkeypatch):
        """120 ranked annotations, LIMIT 10: the ?v run of ties at the cut
        survives (12 rows), and only those rows' ?a / ?b ever decode."""
        store = QuadStore()
        for position in range(120):
            score = Literal((position * 7) % 40 / 40)  # each score three times
            store.annotate(
                _uri(f"a{position}"), _uri("p0"), _uri(f"b{position}"), _uri("certainty"), score
            )
        query = f"""SELECT ?a ?b ?v WHERE {{
            << ?a <{EX}p0> ?b >> <{EX}certainty> ?v .
        }} ORDER BY DESC(?v) ?a ?b"""
        ranked = sparql_oracle.select(store, query).rows
        boundary = ranked[9]["v"]
        survivors = {str(row[name]) for row in ranked if row["v"] >= boundary for name in "ab"}
        assert len(ranked) == 120 and len(survivors) == 2 * 12

        decoded = []
        decode = QueryEncoder.decode
        monkeypatch.setattr(
            QueryEncoder, "decode", lambda self, term_id: decoded.append(term_id) or decode(self, term_id)
        )
        result = SPARQLEngine(store).select(f"{query} LIMIT 10")
        monkeypatch.undo()
        assert ordered_key(result) == ordered_key(sparql_oracle.select(store, f"{query} LIMIT 10"))
        assert len(decoded) == len(set(decoded)), "an id decoded twice in one query"
        terms = [store.dictionary.decode(term_id) for term_id in decoded]
        assert {str(term) for term in terms if isinstance(term, URIRef)} <= survivors
        assert sum(isinstance(term, URIRef) for term in terms) == len(survivors)


class TestIdArrayScans:
    """The storage layer's columnar snapshots agree with the triple sets."""

    def _expected(self, store, predicate_id=None, graph=None):
        return sorted(
            triple
            for index in store.backend.indexes_for(graph)
            for triple in index.triples
            if predicate_id is None or triple[1] == predicate_id
        )

    def test_match_id_arrays_agrees_with_index_sets(self):
        store = make_random_store(5)
        p0 = store.dictionary.lookup(_uri("p0"))
        for predicate_id, graph in [
            (None, None),
            (p0, None),
            (None, _uri("g1")),
            (p0, _uri("g2")),
        ]:
            subjects, predicates, objects = store.match_id_arrays(
                None, predicate_id, None, graph=graph
            )
            got = sorted(zip(subjects.tolist(), predicates.tolist(), objects.tolist()))
            assert got == self._expected(store, predicate_id, graph)

    def test_bound_subject_and_object_masks(self):
        store = make_random_store(5)
        some_triple = next(iter(store.backend.indexes_for(None)[0].triples))
        subject_id, predicate_id, object_id = some_triple
        subjects, predicates, objects = store.match_id_arrays(
            subject_id, predicate_id, object_id
        )
        assert len(subjects) >= 1
        assert set(zip(subjects.tolist(), predicates.tolist(), objects.tolist())) == {
            triple
            for index in store.backend.indexes_for(None)
            for triple in index.triples
            if triple == some_triple
        }

    def test_columnar_snapshot_tracks_graph_version(self):
        store = QuadStore()
        store.add(_uri("a"), _uri("p"), _uri("b"))
        index = store.backend.indexes_for(None)[0]
        first = index.columnar()
        assert index.columnar() is first  # cached while the version holds
        store.add(_uri("a"), _uri("p"), _uri("c"))
        second = index.columnar()
        assert second is not first
        assert len(second.subjects) == len(index.triples)

    def test_empty_store_yields_empty_arrays(self):
        store = QuadStore()
        subjects, predicates, objects = store.match_id_arrays()
        assert len(subjects) == len(predicates) == len(objects) == 0


CONFIGURATIONS = ["memory", "sqlite", "faulted-memory", "faulted-sqlite"]


def assert_answer_is_the_oracles(store, result, query):
    expected = sparql_oracle.select(store, query)
    assert result.variables == expected.variables
    key = ordered_key if "ORDER BY" in query else rows_key
    assert key(result) == key(expected), query


class TestAnswerMemo:
    """``SPARQLEngine.evaluate`` answers a repeated text at one store version
    from its memo, and never serves an answer the store has moved past."""

    MEMO_QUERY = f"SELECT ?o WHERE {{ GRAPH <{EX}g1> {{ <{EX}s0> <{EX}memo> ?o }} }}"

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_an_answer_read_inside_a_rolled_back_batch_is_not_served_after_it(
        self, configuration, open_store, tmp_path
    ):
        store = make_random_store(3, open_store(configuration, tmp_path / "s.sqlite3"))
        engine = SPARQLEngine(store)

        def rolled_back(value):
            with pytest.raises(RuntimeError, match="roll back"):
                with store.write_batch():
                    store.add(_uri("s0"), _uri("memo"), Literal(value), graph=_uri("g1"))
                    assert engine.select(self.MEMO_QUERY).column("o") == [value]
                    raise RuntimeError("roll back")
            return store.version + 1

        assert engine.select(self.MEMO_QUERY).rows == []
        rolled_back("rolled back")
        assert engine.select(self.MEMO_QUERY).rows == []
        # Not asked after the rollback: one committed row brings the store
        # back to the version the batch's answer was read at, with other
        # contents.
        inside = rolled_back("rolled back again")
        store.add(_uri("s0"), _uri("memo"), Literal("committed"), graph=_uri("g1"))
        assert store.version == inside
        assert engine.select(self.MEMO_QUERY).column("o") == ["committed"]
        assert engine.select(self.MEMO_QUERY).column("o") == ["committed"]
        assert engine.stats()["answers"] == {"hits": 1, "misses": 5}
        store.close()

    def test_reopen_onto_a_replaced_file_answers_that_file(self, tmp_path):
        served, replacement = tmp_path / "served.sqlite3", tmp_path / "replacement.sqlite3"
        other = make_random_store(5, QuadStore.sqlite(replacement))
        expected = {query: rows_key(SPARQLEngine(other).select(query)) for query in QUERY_SHAPES[:8]}
        other.close()
        store = make_random_store(3, QuadStore.sqlite(served))
        engine = SPARQLEngine(store)
        before = {query: rows_key(engine.select(query)) for query in expected}
        assert before != expected
        store.flush()
        store.backend.checkpoint()
        shutil.copyfile(replacement, served)
        try:
            store.reopen()
            for query, rows in expected.items():
                assert rows_key(engine.select(query)) == rows
                assert_answer_is_the_oracles(store, engine.select(query), query)
            assert engine.stats()["answers"] == {"hits": len(expected), "misses": 2 * len(expected)}
        finally:
            store.close()

    def test_a_returned_result_is_the_callers_own(self):
        engine = SPARQLEngine(make_random_store(11))
        query = QUERY_SHAPES[1]
        first = engine.select(query)
        expected = (list(first.variables), ordered_key(first))
        assert expected[1]
        for result in (first, engine.select(query)):
            result.rows[0][result.variables[0]] = "mutated"
            result.rows.append({})
            result.variables.append("extra")
            again = engine.select(query)
            assert (again.variables, ordered_key(again)) == expected
        assert engine.stats()["answers"] == {"hits": 3, "misses": 1}

    def test_only_texts_read_under_the_engines_prefixes_are_memoized(self):
        """The key is the text the engine reads under its own prefixes: a
        parsed query, under another prefix map or under the engine's own,
        always evaluates."""
        store = make_random_store(3)
        ours = {**DEFAULT_PREFIXES, "ex": Namespace(EX)}
        engine = SPARQLEngine(store, prefixes=ours)
        text = "SELECT ?o WHERE { ex:s0 ex:p0 ?o }"
        answer = engine.select(text)
        assert answer.rows and rows_key(engine.evaluate(text)) == rows_key(answer)
        elsewhere = parse_query(text, {**DEFAULT_PREFIXES, "ex": Namespace("http://elsewhere.org/")})
        assert engine.evaluate(elsewhere).rows == []
        parsed = parse_query(text, ours)
        for _ in range(2):
            assert rows_key(engine.evaluate(parsed)) == rows_key(answer)
        assert engine.stats()["answers"] == {"hits": 1, "misses": 4}

    def test_a_malformed_query_raises_on_every_call(self):
        engine = SPARQLEngine(make_random_store(3))
        for _ in range(3):
            with pytest.raises(SPARQLSyntaxError):
                engine.select(f"SELECT ?s WHERE {{ ?s <{EX}p0> ")
        assert engine.stats()["answers"] == {"hits": 0, "misses": 0}

    def test_a_query_that_raised_is_not_memoized(self, monkeypatch):
        store = make_random_store(3)
        engine = SPARQLEngine(store)
        collate, failures = engine_module.collate, [RuntimeError("collation failed")]

        def failing_once(*args):
            if failures:
                raise failures.pop()
            return collate(*args)

        monkeypatch.setattr(engine_module, "collate", failing_once)
        with pytest.raises(RuntimeError, match="collation failed"):
            engine.select(QUERY_SHAPES[0])
        assert_answer_is_the_oracles(store, engine.select(QUERY_SHAPES[0]), QUERY_SHAPES[0])
        assert engine.stats()["answers"] == {"hits": 0, "misses": 2}

    def test_the_memo_holds_at_most_its_row_bound(self, monkeypatch):
        engine = SPARQLEngine(make_random_store(11))
        small, other, large = QUERY_SHAPES[1], QUERY_SHAPES[5], QUERY_SHAPES[0]  # 28, 4, 56 rows
        monkeypatch.setattr(engine_module, "ANSWER_MEMO_ROWS", 30)
        for query in (small, small, other, small, large, large):
            engine.select(query)
        # small is kept; other overfills the memo, which empties and keeps
        # other alone; large alone is over the bound and never kept.
        assert engine.stats()["answers"] == {"hits": 1, "misses": 5}
        assert engine._answer_rows <= 30

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_answers_equal_the_oracle_across_interleaved_writes(self, configuration, open_store, tmp_path):
        """Queries interleaved with adds, removes, committed batches and
        rolled-back batches (queried inside too): every answer is the oracle's.

        A ``rewind`` step reads inside a batch that rolls back, then commits
        as many other new rows, so the store is back at the version the
        rolled-back read saw, with other contents."""
        subjects = st.integers(0, 11).map(lambda i: _uri(f"s{i}"))
        objects = st.one_of(subjects, st.integers(0, 9).map(Literal))
        triples = st.tuples(
            subjects, st.integers(0, 3).map(lambda i: _uri(f"p{i}")), objects,
            st.sampled_from([_uri("g1"), _uri("g2")]),
        )
        # A query step names one of the example's few shapes, so texts repeat
        # across the writes between them.
        queries = st.integers(0, 2)
        operations = st.lists(
            st.one_of(
                st.tuples(st.just("query"), queries),
                st.tuples(st.just("add"), triples),
                st.tuples(st.just("remove"), triples),
                st.tuples(st.just("annotate"), triples, st.integers(0, 9)),
                st.tuples(st.just("batch"), st.lists(triples, max_size=3), queries, st.booleans(), st.booleans()),
                st.tuples(st.just("rewind"), st.lists(triples, min_size=1, max_size=3), queries),
            ),
            min_size=1,
            max_size=25,
        )
        paths, fresh, hits = itertools.count(), itertools.count(), []

        @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(st.lists(st.integers(0, len(QUERY_SHAPES) - 1), min_size=3, max_size=3), operations)
        def run(shapes, steps):
            store = make_random_store(3, open_store(configuration, tmp_path / f"s{next(paths)}.sqlite3"), 4)
            engine = SPARQLEngine(store)
            try:
                for step in steps:
                    kind = step[0]
                    if kind == "query":  # asked twice: the second is a memo hit
                        query = QUERY_SHAPES[shapes[step[1]]]
                        for _ in range(2):
                            assert_answer_is_the_oracles(store, engine.select(query), query)
                    elif kind == "add":
                        store.add(*step[1])
                    elif kind == "remove":
                        store.remove(*step[1])
                    elif kind == "annotate":
                        subject, _, obj, graph = step[1]
                        store.annotate(subject, _uri("p0"), obj, _uri("certainty"), Literal(step[2] / 10), graph)
                    elif kind == "rewind":
                        query = QUERY_SHAPES[shapes[step[2]]]
                        for outcome in ("roll back", "commit"):
                            try:
                                with store.write_batch():
                                    for subject, predicate, _, graph in step[1]:
                                        store.add(subject, predicate, Literal(f"new {next(fresh)}"), graph)
                                    if outcome == "roll back":
                                        assert_answer_is_the_oracles(store, engine.select(query), query)
                                        raise KeyError(outcome)
                            except KeyError:
                                pass
                        assert_answer_is_the_oracles(store, engine.select(query), query)
                    else:
                        _, rows, shape, commit, ask_after = step
                        query = QUERY_SHAPES[shapes[shape]]
                        try:
                            with store.write_batch():
                                for row in rows:
                                    store.add(*row)
                                assert_answer_is_the_oracles(store, engine.select(query), query)
                                if not commit:
                                    raise KeyError("roll back")
                        except KeyError:
                            pass
                        if ask_after:
                            assert_answer_is_the_oracles(store, engine.select(query), query)
                hits.append(engine.stats()["answers"]["hits"])
            finally:
                store.close()

        run()
        assert sum(hits) > 0, "no example answered from the memo"


def add_join_path_rows(store: QuadStore) -> QuadStore:
    """Rows that give every one-join-path shape an answer on any store.

    A self-loop, an annotation on a self-loop, an annotation whose object is
    its quoted subject's subject, and a named node that lives somewhere but
    has no ``p3`` edge (its OPTIONAL ``?x`` stays unbound).
    """
    g1, g2 = _uri("g1"), _uri("g2")
    store.add(_uri("s3"), _uri("p0"), _uri("s3"), graph=g1)
    store.annotate(_uri("s4"), _uri("p0"), _uri("s4"), _uri("certainty"), Literal(0.25), graph=g2)
    store.annotate(_uri("s5"), _uri("p0"), _uri("s6"), _uri("about"), _uri("s5"), graph=g1)
    store.add(_uri("loner"), _uri("name"), Literal("loner"), graph=g1)
    store.add(_uri("loner"), _uri("livesIn"), g2, graph=g2)
    return store


def make_tiny_store(seed: int, store: QuadStore) -> QuadStore:
    """A handful of quads over five nodes, so random patterns meet often.

    Self-loops, a node that is also a predicate, a graph name used as a
    term, and ``p1`` annotations whose values are nodes too.
    """
    rng = random.Random(seed)
    graphs = [_uri("g1"), _uri("g2")]
    nodes = [_uri("s0"), _uri("s1"), _uri("s2"), graphs[0], _uri("p0")]
    predicates = [_uri("p0"), _uri("p1")]
    for _ in range(rng.randint(1, 16)):
        obj = rng.choice(nodes + [Literal(rng.randint(0, 1))])
        store.add(rng.choice(nodes), rng.choice(predicates), obj, graph=rng.choice(graphs))
    for _ in range(rng.randint(0, 4)):
        value = rng.choice(nodes + [Literal(1)])
        store.annotate(
            rng.choice(nodes), predicates[0], rng.choice(nodes), predicates[1], value,
            graph=rng.choice(graphs),
        )
    return store


class TestOneJoinPath:
    """Every pattern the parser accepts joins through the compiled plan.

    The shapes the plan serves with equality checks (a repeated variable)
    and unbound-slot writes (an OPTIONAL-unbound join key) equal the oracle
    on every backend configuration; a quoted pattern off the subject
    position is a syntax error in the text and in a hand-built query.
    """

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_join_path_shapes_match_the_oracle_with_rows(self, configuration, open_store, tmp_path):
        store = add_join_path_rows(make_random_store(3, open_store(configuration, tmp_path / "s.sqlite3")))
        try:
            for shape in JOIN_PATH_SHAPES:
                assert len(assert_matches_oracle(store, QUERY_SHAPES[shape])) > 0, shape
        finally:
            store.close()

    def test_unbound_key_rows_join_in_scan_and_probe_mode(self, monkeypatch):
        """The rows without ``?x`` join through a plan keyed on ``?s`` alone
        that picks ``?x`` from the match: a scan for the ``livesIn`` shape,
        a probe for the ``?s ?p ?x`` shape."""
        store = add_join_path_rows(make_random_store(3))
        calls = []
        scan_join_table, compile_probe = join.scan_join_table, join.compile_probe

        def scanning(ctx, plan):
            calls.append(("scan", plan.key_picks, plan.picks))
            return scan_join_table(ctx, plan)

        def probing(ctx, plan):
            calls.append(("probe", plan.key_picks, plan.picks))
            return compile_probe(ctx, plan)

        monkeypatch.setattr(join, "scan_join_table", scanning)
        monkeypatch.setattr(join, "compile_probe", probing)
        scan_shape, probe_shape = QUERY_SHAPES[JOIN_PATH_SHAPES[-2]], QUERY_SHAPES[JOIN_PATH_SHAPES[-1]]
        assert_matches_oracle(store, scan_shape)
        assert ("scan", [("t", 0)], [("t", 2)]) in calls
        calls.clear()
        assert_matches_oracle(store, probe_shape)
        assert ("probe", [("t", 0)], [("t", 1), ("t", 2)]) in calls

    @pytest.mark.parametrize(
        "patterns",
        [
            f"?a <{EX}p0> << ?s <{EX}p0> ?o >> .",
            f"?a <{EX}p0> ?b , << ?s <{EX}p0> ?o >> .",
            f"?a <{EX}p0> ?b ; <{EX}p1> << ?s <{EX}p0> ?o >> .",
            f"<< << ?s <{EX}p0> ?o >> <{EX}p0> ?a >> <{EX}certainty> ?v .",
        ],
        ids=["object", "object-list", "predicate-object-list", "nested"],
    )
    def test_a_quoted_pattern_off_the_subject_is_a_syntax_error(self, patterns):
        query = f"SELECT ?a WHERE {{ {patterns} }}"
        with pytest.raises(SPARQLSyntaxError):
            parse_query(query)
        with pytest.raises(SPARQLSyntaxError):
            SPARQLEngine(make_random_store(3)).select(query)

    def test_a_hand_built_quoted_pattern_off_the_subject_raises_in_the_compiler(self):
        quoted = QuotedPattern(Var("s"), _uri("p0"), Var("o"))
        engine = SPARQLEngine(make_random_store(3))
        for pattern in (
            TriplePattern(Var("a"), _uri("p0"), quoted),
            TriplePattern(QuotedPattern(quoted, _uri("p0"), Var("a")), _uri("certainty"), Var("v")),
        ):
            query = SelectQuery([Var("a")], False, GroupPattern([pattern]))
            with pytest.raises(SPARQLSyntaxError, match="outside subject position"):
                engine.evaluate(query)

    def test_random_groups_match_the_oracle_on_every_configuration(self, open_store, tmp_path):
        """Random 1-3 element groups over three variables on random tiny
        stores: repeated variables, quoted subjects, OPTIONALs whose variable
        a later pattern reuses, and ``GRAPH ?g`` around the group or its
        last element (``?g`` is also a pattern variable)."""
        nodes = st.sampled_from(["?a", "?b", "?g", f"<{EX}s0>", f"<{EX}g1>"])
        predicates = st.sampled_from(["?a", "?b", f"<{EX}p0>", f"<{EX}p1>"])
        quoted = st.builds("<< {} {} {} >>".format, nodes, predicates, nodes)
        patterns = st.builds("{} {} {} .".format, st.one_of(nodes, quoted), predicates, nodes)
        elements = st.lists(
            st.one_of(patterns, patterns.map("OPTIONAL {{ {} }}".format)), min_size=1, max_size=3
        )
        paths = itertools.count()

        @settings(
            max_examples=60, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(st.integers(0, 10**6), elements, st.sampled_from(["none", "group", "last"]))
        def run(seed, body, graph_scope):
            if graph_scope == "group":
                body = [f"GRAPH ?g {{ {' '.join(body)} }}"]
            elif graph_scope == "last":
                body = body[:-1] + [f"GRAPH ?g {{ {body[-1]} }}"]
            text = " ".join(body)
            query = f"SELECT {' '.join(sorted(set(re.findall(r'[?][a-z]+', text))))} WHERE {{ {text} }}"
            for configuration in CONFIGURATIONS:
                store = make_tiny_store(seed, open_store(configuration, tmp_path / f"s{next(paths)}.sqlite3"))
                try:
                    assert_matches_oracle(store, query)
                finally:
                    store.close()

        run()
