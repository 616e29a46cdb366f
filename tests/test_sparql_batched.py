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
* **Bounded lookup memo** — the per-pattern memo evicts past capacity and
  reports hit/miss counters through the engine.
"""

from __future__ import annotations

import random

import pytest

from repro.rdf import (
    Literal,
    QuadStore,
    QuotedTriple,
    TermDictionary,
    URIRef,
)
from repro.rdf.serialize import serialize_nquads
from repro.sparql import SPARQLEngine
from repro.sparql.columnar import UNBOUND, BoundedMemo, Relation

import sparql_oracle

EX = "http://example.org/"


def _uri(name: str) -> URIRef:
    return URIRef(f"{EX}{name}")


def make_random_store(seed: int, store: QuadStore | None = None) -> QuadStore:
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
    # RDF-star annotations on a handful of edges.
    annotation = _uri("certainty")
    for _ in range(15):
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
]


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
    params=[("memory", 3), ("memory", 11), ("memory", 42), ("sqlite", 7), ("sqlite", 19)],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def random_store(request, tmp_path_factory):
    backend, seed = request.param
    if backend == "memory":
        yield make_random_store(seed)
        return
    store = make_random_store(
        seed, QuadStore.sqlite(tmp_path_factory.mktemp("parity") / "s.sqlite3")
    )
    assert serialize_nquads(store) == serialize_nquads(make_random_store(seed))
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

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_empty_and_single_triple_graphs(self, backend, tmp_path):
        store = QuadStore() if backend == "memory" else QuadStore.sqlite(tmp_path / "s.sqlite3")
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

    def test_value_equal_terms_share_one_id(self):
        """Dict-key equality semantics: URIRef("x") and "x" alias (as the
        seed's triple sets did), Literal("5") and "5" stay distinct."""
        dictionary = TermDictionary()
        assert dictionary.encode(_uri("x")) == dictionary.encode(str(_uri("x")))
        assert dictionary.encode(Literal("5")) != dictionary.encode("5")


class TestBoundedMemo:
    def test_lru_eviction_and_counters(self):
        memo = BoundedMemo(capacity=2)
        missing = memo.MISSING
        assert memo.get("a") is missing
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes "a"; "b" is now LRU
        memo.put("c", 3)  # evicts "b"
        assert memo.get("b") is missing
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        counters = memo.counters()
        assert counters["evictions"] == 1
        assert counters["hits"] == 3
        assert counters["misses"] == 2
        assert len(memo) == 2

    def test_unbounded_memo_keeps_counters(self):
        memo = BoundedMemo(capacity=None)
        for position in range(100):
            memo.put(position, position)
        assert len(memo) == 100
        assert memo.counters()["evictions"] == 0

    def test_engine_exposes_memo_counters(self):
        store = make_random_store(3)
        engine = SPARQLEngine(store)
        engine.select(QUERY_SHAPES[0])
        assert engine.stats()["pattern_memo"]["misses"] > 0

    def test_tiny_capacity_does_not_change_results(self, monkeypatch):
        store = make_random_store(11)
        roomy = {query: rows_key(SPARQLEngine(store).select(query)) for query in QUERY_SHAPES}
        monkeypatch.setattr(SPARQLEngine, "DEFAULT_MEMO_CAPACITY", 1)
        cramped = SPARQLEngine(store)
        for query in QUERY_SHAPES:
            assert rows_key(cramped.select(query)) == roomy[query]
        stats = cramped.stats()
        assert stats["pattern_memo"]["evictions"] > 0
        assert stats["filter_memo"]["evictions"] > 0


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
        assert set(stats["pattern_memo"]) == {"hits", "misses", "evictions"}

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
        engine.select(self.FILTER_QUERY)
        # Verdict tables are per query, so the second run repeats the first.
        assert engine.stats()["filter_memo"] == {
            name: 2 * value for name, value in first.items()
        }


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
