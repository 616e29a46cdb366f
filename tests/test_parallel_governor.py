"""Multi-core governance: process-pool execution, exact wide groups, planner stats.

These tests pin the contracts that make the parallel governor safe:

* serial / threads / processes executor backends produce byte-identical
  LiDS graphs and governor reports over the same lake;
* profiles round-trip losslessly through ``to_dict``/``to_json`` (the
  process-boundary transport format);
* similarity stays exact however wide a type group grows: one-shot, two
  halves and the per-pair reference agree on the edge set;
* the SPARQL planner consumes live per-predicate cardinality statistics
  (pattern order follows fan-out, and changes when cardinalities change);
* one-side-bound RDF-star patterns hit the partial quoted-triple index
  instead of scanning all annotations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.embeddings.store import EmbeddingStore
from repro.kg import DataGlobalSchemaBuilder, KGGovernor
from repro.parallel import JobExecutor, default_worker_count
from repro.profiler import DataProfiler
from repro.profiler.profile import ColumnProfile, TableProfile
from repro.profiler.stats import ColumnStatistics
from repro.rdf import Literal, QuadStore, URIRef
from repro.sparql import SPARQLEngine
from repro.tabular import DataLake, Table

import similarity_oracle
import sparql_oracle

_SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _snapshot(store: QuadStore):
    return {graph: frozenset(store.triples(graph=graph)) for graph in store.graphs()}


@pytest.fixture(scope="module")
def seeded_lake() -> DataLake:
    """A small lake with overlapping numeric/string schemas across datasets."""
    lake = DataLake("parallel_lake")
    rng = np.random.RandomState(11)
    for dataset, offset in (("sales", 0.0), ("returns", 0.1), ("audit", 0.05)):
        for part in range(2):
            lake.add_table(
                dataset,
                Table.from_dict(
                    f"{dataset}_{part}",
                    {
                        "amount": list(rng.normal(100 + offset, 5, 12)),
                        "quantity": list(rng.randint(1, 50, 12)),
                        "region": ["north", "south", "east", "west"] * 3,
                        "approved": [True, False] * 6,
                    },
                ),
            )
    return lake


# ---------------------------------------------------------------- executors
class TestJobExecutor:
    def test_processes_backend_maps_in_order(self):
        executor = JobExecutor(backend="processes", max_workers=2)
        assert executor.map(_square, list(range(20))) == [n * n for n in range(20)]
        assert executor.last_fallback_reason is None

    def test_unpicklable_worker_falls_back_to_serial(self):
        executor = JobExecutor(backend="processes", max_workers=2)
        doubled = executor.map(lambda n: 2 * n, [1, 2, 3])
        assert doubled == [2, 4, 6]
        assert executor.last_fallback_reason is not None

    def test_map_partitions_defaults_to_core_count(self):
        executor = JobExecutor()
        assert executor.num_partitions == default_worker_count()
        assert JobExecutor(num_partitions=3).num_partitions == 3
        partitions = JobExecutor(num_partitions=2).map_partitions(list, list(range(10)))
        assert [len(p) for p in partitions] == [5, 5]
        assert [x for p in partitions for x in p] == list(range(10))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            JobExecutor(backend="spark")

    def test_initializer_runs_on_serial_backend(self):
        executor = JobExecutor()
        seen = []
        executor.map(len, ["ab"], initializer=seen.append, initargs=("ready",))
        assert seen == ["ready"]


def _square(n: int) -> int:
    return n * n


# ----------------------------------------------------- backend equivalence
class TestBackendEquivalence:
    def test_all_backends_build_identical_graphs(self, seeded_lake):
        snapshots, reports, embeddings = {}, {}, {}
        for backend in ("serial", "threads", "processes"):
            governor = KGGovernor(executor=JobExecutor(backend=backend, max_workers=4))
            report = governor.add_data_lake(seeded_lake)
            snapshots[backend] = _snapshot(governor.storage.graph)
            reports[backend] = (
                report.num_tables_profiled,
                report.num_columns_profiled,
                report.num_similarity_edges,
            )
            embeddings[backend] = governor.storage.embeddings.count()
        assert snapshots["serial"] == snapshots["threads"] == snapshots["processes"]
        assert reports["serial"] == reports["threads"] == reports["processes"]
        assert embeddings["serial"] == embeddings["threads"] == embeddings["processes"]
        assert reports["serial"][2] > 0

    def test_process_profiles_match_serial_profiles(self, seeded_lake):
        tables = seeded_lake.tables()
        serial = DataProfiler().profile_tables(tables)
        parallel = DataProfiler(
            executor=JobExecutor(backend="processes", max_workers=2)
        ).profile_tables(tables)
        for left, right in zip(serial, parallel):
            assert left.table_id == right.table_id
            assert np.array_equal(left.embedding, right.embedding)
            for cp_left, cp_right in zip(left.column_profiles, right.column_profiles):
                assert cp_left.to_dict() == cp_right.to_dict()

    def test_custom_components_fall_back_in_process(self, seeded_lake):
        """Custom (unconfigurable) models profile in-process, not in workers."""
        from repro.embeddings.colr import CoarseGrainedModelSet

        profiler = DataProfiler(
            colr_models=CoarseGrainedModelSet(),
            executor=JobExecutor(backend="processes", max_workers=2),
        )
        assert not profiler._default_components
        profiles = profiler.profile_tables(seeded_lake.tables()[:2])
        assert len(profiles) == 2


# -------------------------------------------------------- wide type groups
class TestWideTypeGroupsStayExact:
    def _wide_profiles(self, num_tables: int = 44, columns_per_table: int = 3):
        """Tables whose numeric columns form one wide fine-grained type group.

        Columns come in three value-scale families: columns of the same
        family are near-duplicates (above the content threshold), columns of
        different families are far apart — so every column has
        ``num_tables - 1`` true content matches.
        """
        rng = np.random.RandomState(5)
        bases = [rng.normal(10.0**family, 0.5, 30) for family in range(3)]
        lake = DataLake("wide")
        for t in range(num_tables):
            data = {}
            for c in range(columns_per_table):
                family = c % 3
                data[f"metric_{family}_{c}"] = list(bases[family] + rng.normal(0, 0.005, 30))
            lake.add_table("wide", Table.from_dict(f"t{t}", data))
        return DataProfiler().profile_data_lake(lake)

    def test_one_shot_equals_two_halves_equals_reference(self):
        """132 same-typed columns, 43 matches each: top-k pruning lost edges here."""
        profiles = self._wide_profiles()
        types = [c.fine_grained_type for p in profiles for c in p.column_profiles]
        assert max(types.count(fine_type) for fine_type in set(types)) >= 128
        builder = DataGlobalSchemaBuilder()
        one_shot = builder.compute_incremental_similarities(profiles, ())
        first, second = profiles[:22], profiles[22:]
        halves = builder.compute_incremental_similarities(
            first, ()
        ) + builder.compute_incremental_similarities(second, first)
        reference = similarity_oracle.column_similarities(profiles)
        content_matches = sum(edge.kind == "content" for edge in reference)
        assert 2 * content_matches / len(types) > 32  # mean true matches per column
        assert similarity_oracle.normalize(one_shot) == similarity_oracle.normalize(reference)
        assert similarity_oracle.normalize(halves) == similarity_oracle.normalize(reference)
        # Exact scoring: every candidate pair was scored, on both builds.
        assert builder.pruning_stats["scored_pairs"] == builder.pruning_stats["candidate_pairs"] > 0
        assert set(builder.pruning_stats) == {"scored_pairs", "candidate_pairs"}


# -------------------------------------------------------- profile round-trip
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
optional_floats = st.one_of(st.none(), finite_floats)
identifiers = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
)


class TestProfileRoundTrip:
    @_SETTINGS
    @given(
        dataset=identifiers,
        table=identifiers,
        column=identifiers,
        fine_type=st.sampled_from(["int", "float", "string", "boolean", "date"]),
        count=st.integers(min_value=0, max_value=10**6),
        missing=st.integers(min_value=0, max_value=10**6),
        minimum=optional_floats,
        true_ratio=optional_floats,
        embedding=st.lists(finite_floats, min_size=1, max_size=16),
        label_embedding=st.one_of(st.none(), st.lists(finite_floats, min_size=1, max_size=8)),
    )
    def test_json_round_trip_is_lossless(
        self,
        dataset,
        table,
        column,
        fine_type,
        count,
        missing,
        minimum,
        true_ratio,
        embedding,
        label_embedding,
    ):
        profile = ColumnProfile(
            dataset_name=dataset,
            table_name=table,
            column_name=column,
            fine_grained_type=fine_type,
            statistics=ColumnStatistics(
                count=count, missing_count=missing, minimum=minimum, true_ratio=true_ratio
            ),
            embedding=np.asarray(embedding, dtype=float),
            label_embedding=(
                np.asarray(label_embedding, dtype=float) if label_embedding is not None else None
            ),
        )
        restored = ColumnProfile.from_json(profile.to_json())
        assert restored.to_dict() == profile.to_dict()
        assert restored.column_id == profile.column_id
        assert restored.statistics == profile.statistics
        assert np.array_equal(restored.embedding, profile.embedding)
        if profile.label_embedding is None:
            assert restored.label_embedding is None
        else:
            assert np.array_equal(restored.label_embedding, profile.label_embedding)

    def test_table_profile_round_trip(self, seeded_lake):
        profile = DataProfiler().profile_table(seeded_lake.tables()[0])
        restored = TableProfile.from_dict(profile.to_dict())
        assert restored.table_id == profile.table_id
        assert np.array_equal(restored.embedding, profile.embedding)
        assert [c.to_dict() for c in restored.column_profiles] == [
            c.to_dict() for c in profile.column_profiles
        ]

    def test_statistics_from_dict_ignores_unknown_keys(self):
        stats = ColumnStatistics.from_dict({"count": 3, "someday_a_new_field": 1})
        assert stats.count == 3


# ------------------------------------------------------------ embedding store
class TestPutMany:
    def test_put_many_matches_repeated_put(self):
        rng = np.random.RandomState(0)
        items = [(f"k{i}", rng.normal(size=8)) for i in range(20)]
        one_by_one, batched = EmbeddingStore(), EmbeddingStore()
        for key, vector in items:
            one_by_one.put("column", key, vector)
        batched.put_many("column", items)
        assert batched.count("column") == one_by_one.count("column") == 20
        for key, vector in items:
            assert np.array_equal(batched.get("column", key), vector)
        query = items[3][1]
        assert [k for k, _ in batched.search("column", query, k=5)] == [
            k for k, _ in one_by_one.search("column", query, k=5)
        ]

    def test_put_many_overwrites_existing_keys(self):
        store = EmbeddingStore()
        store.put("column", "a", np.ones(4))
        store.search("column", np.ones(4), k=1)  # materialize the index matrix
        store.put_many("column", [("a", np.full(4, 2.0)), ("b", np.full(4, 3.0))])
        assert np.array_equal(store.get("column", "a"), np.full(4, 2.0))
        assert store.count("column") == 2
        assert store.search("column", np.full(4, 2.0), k=1)[0][1] == pytest.approx(1.0)

    def test_put_many_empty_is_noop(self):
        store = EmbeddingStore()
        store.put_many("column", [])
        assert store.count("column") == 0


# --------------------------------------------------------- planner statistics
_EX = "http://example.org/"


def _uri(name: str) -> URIRef:
    return URIRef(_EX + name)


def _fanout_store(p1_subjects: int, p2_subjects: int) -> QuadStore:
    """100 triples for each of p1/p2, spread over the given subject counts."""
    store = QuadStore()
    for i in range(5):
        store.add(_uri(f"x{i}"), _uri("p0"), _uri(f"y{i}"))
    for predicate, distinct in (("p1", p1_subjects), ("p2", p2_subjects)):
        for i in range(100):
            store.add(_uri(f"y{i % distinct}"), _uri(predicate), _uri(f"{predicate}_o{i}"))
    return store


class TestStatisticsDrivenPlanner:
    QUERY = f"""
        SELECT ?x ?z ?w WHERE {{
            ?x <{_EX}p0> ?y .
            ?y <{_EX}p1> ?z .
            ?y <{_EX}p2> ?w .
        }}
    """

    def test_store_maintains_predicate_statistics(self):
        store = _fanout_store(100, 5)
        stats = store.predicate_statistics(_uri("p1"))
        assert stats == {"count": 100, "distinct_subjects": 100, "distinct_objects": 100}
        store.remove(_uri("y0"), _uri("p1"), _uri("p1_o0"))
        assert store.predicate_statistics(_uri("p1"))["count"] == 99
        assert store.predicate_statistics(_uri("p1"))["distinct_subjects"] == 99
        assert store.predicate_statistics(_uri("missing")) is None
        assert _uri("p2") in store.cardinality_statistics()

    def test_pattern_order_follows_live_cardinalities(self):
        low_fanout_first = SPARQLEngine(_fanout_store(p1_subjects=100, p2_subjects=5))
        plan_a = low_fanout_first.explain(self.QUERY)
        assert plan_a.index(f"?y <{_EX}p1> ?z") < plan_a.index(f"?y <{_EX}p2> ?w")

        # Same triple counts, inverted fan-outs: the plan must flip too.
        high_fanout_first = SPARQLEngine(_fanout_store(p1_subjects=5, p2_subjects=100))
        plan_b = high_fanout_first.explain(self.QUERY)
        assert plan_b.index(f"?y <{_EX}p2> ?w") < plan_b.index(f"?y <{_EX}p1> ?z")

    def test_planner_preserves_semantics(self):
        store = _fanout_store(10, 20)
        optimized = SPARQLEngine(store).select(self.QUERY)
        naive = sparql_oracle.select(store, self.QUERY)
        assert sorted(map(str, optimized.rows)) == sorted(map(str, naive.rows))


class TestPartialQuotedIndex:
    def _annotated_store(self, n: int = 150) -> QuadStore:
        store = QuadStore()
        sim, cert = _uri("similar"), _uri("certainty")
        for i in range(n):
            store.annotate(_uri(f"c{i}"), sim, _uri(f"d{i}"), cert, Literal(0.5 + i / (2 * n)))
        return store

    def test_one_side_bound_pattern_uses_partial_index(self):
        store = self._annotated_store()
        query = f"""
            SELECT ?c2 ?score WHERE {{
                << <{_EX}c7> <{_EX}similar> ?c2 >> <{_EX}certainty> ?score .
            }}
        """
        engine = SPARQLEngine(store)
        # Whichever executor runs, a one-side-bound quoted pattern must pick
        # its candidates through the partial quoted-triple index
        # (GraphIndex._quoted_candidates), never via full triple scans
        # (store.match / store.match_ids with an unbound subject).
        from repro.rdf.graph_index import GraphIndex

        calls = {"match": 0, "match_quoted": 0}
        original_match = store.match_ids
        original_candidates = GraphIndex._quoted_candidates

        def counting_match(*args, **kwargs):
            calls["match"] += 1
            return original_match(*args, **kwargs)

        def counting_candidates(*args, **kwargs):
            calls["match_quoted"] += 1
            return original_candidates(*args, **kwargs)

        store.match_ids = counting_match
        GraphIndex._quoted_candidates = counting_candidates
        try:
            result = engine.select(query)
        finally:
            store.match_ids = original_match
            GraphIndex._quoted_candidates = original_candidates
        assert result.rows == [{"c2": _uri("d7"), "score": pytest.approx(0.5 + 7 / 300)}]
        assert calls["match_quoted"] >= 1
        assert calls["match"] == 0

    def test_partial_index_estimate_beats_annotation_scan(self):
        store = self._annotated_store()
        # One bound side narrows the candidates to that column's annotations.
        assert store.estimate_quoted_matches(inner_subject=_uri("c7")) == 1
        assert store.predicate_statistics(_uri("certainty"))["count"] == 150

    def test_match_quoted_object_side_and_semantics(self):
        store = self._annotated_store(20)
        hits = list(store.match_quoted(inner_object=_uri("d3")))
        assert len(hits) == 1
        triple, _ = hits[0]
        assert triple.subject.subject == _uri("c3")
        # The engine answers object-side-bound patterns like the oracle.
        query = f"""
            SELECT ?c1 ?score WHERE {{
                << ?c1 <{_EX}similar> <{_EX}d3> >> <{_EX}certainty> ?score .
            }}
        """
        optimized = SPARQLEngine(store).select(query)
        naive = sparql_oracle.select(store, query)
        assert sorted(map(str, optimized.rows)) == sorted(map(str, naive.rows))
        assert optimized.rows[0]["c1"] == _uri("c3")
