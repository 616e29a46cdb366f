"""Incrementality guarantees: table-by-table governance must equal bootstrap.

The KG Governor builds the LiDS graph incrementally — similarity is scored
only for new x (new + existing) column pairs on each add.  These tests pin
the contract that makes that optimization safe: one-shot and incremental
construction produce byte-identical graphs, re-adds are idempotent, the
matrix similarity kernel agrees with the per-pair reference under
``tests/similarity_oracle.py``, and the index-aware SPARQL planner returns
the same answers as naive evaluation.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.embeddings.words import WordEmbeddingModel
from repro.kg import DataGlobalSchemaBuilder, KGGovernor, LiDSOntology
from repro.kg.ontology import DATASET_GRAPH
from repro.profiler import DataProfiler
from repro.rdf import QuadStore, RDF
from repro.sparql import SPARQLEngine
from repro.tabular import DataLake, Table

import similarity_oracle
import sparql_oracle


def _snapshot(store: QuadStore):
    """``{graph: frozenset(triples)}`` — the full content of a quad store."""
    return {
        graph: frozenset(store.triples(graph=graph)) for graph in store.graphs()
    }


def _overlap_lake() -> DataLake:
    """Four tables across three datasets with overlapping columns."""
    lake = DataLake("incremental_lake")
    lake.add_table(
        "titanic",
        Table.from_dict(
            "train",
            {
                "Age": [22, 38, 26, 35, 54, 2, 27, 14],
                "Fare": [7.25, 71.28, 7.92, 53.1, 51.86, 21.07, 11.13, 16.7],
                "Survived": [0, 1, 1, 1, 0, 1, 0, 1],
            },
        ),
    )
    lake.add_table(
        "titanic",
        Table.from_dict(
            "test",
            {
                "Age": [21, 39, 25, 36, 55, 3, 28, 15],
                "Fare": [8.0, 70.0, 8.5, 52.0, 50.0, 22.0, 12.0, 17.0],
            },
        ),
    )
    lake.add_table(
        "heart",
        Table.from_dict(
            "heart",
            {
                "age": [63, 37, 41, 56, 57, 45, 68, 51],
                "chol": [233.0, 250.0, 204.0, 236.0, 354.0, 199.0, 274.0, 212.0],
                "target": [1, 1, 1, 1, 0, 0, 1, 0],
            },
        ),
    )
    lake.add_table(
        "shop",
        Table.from_dict(
            "orders",
            {
                "price": [9.5, 12.0, 3.75, 20.0, 5.25, 14.9, 7.0, 2.5],
                "in_stock": [True, False, True, True, False, True, False, True],
                "item": ["pen", "book", "mug", "bag", "hat", "pad", "cup", "toy"],
            },
        ),
    )
    return lake


@pytest.fixture()
def overlap_lake() -> DataLake:
    return _overlap_lake()


def _boolean_lake() -> DataLake:
    """Three tables whose boolean columns sit on both sides of ``beta``."""
    lake = DataLake("boolean_lake")
    for name, num_true in (("orders", 10), ("returns", 11), ("audits", 2)):
        flags = [True] * num_true + [False] * (16 - num_true)
        lake.add_table(
            name,
            Table.from_dict(
                name,
                {"approved": flags, "in_stock": flags[::-1], "amount": [1.5 * i for i in range(16)]},
            ),
        )
    return lake


class TestIncrementalEqualsBootstrap:
    def test_identical_triples_edges_and_embeddings(self, overlap_lake):
        bootstrap = KGGovernor()
        bootstrap.add_data_lake(overlap_lake)

        incremental = KGGovernor()
        for table in overlap_lake.tables():
            incremental.add_table(table, dataset_name=table.dataset)

        assert _snapshot(bootstrap.storage.graph) == _snapshot(incremental.storage.graph)
        for namespace in ("table", "column"):
            keys_a = sorted(bootstrap.storage.embeddings.keys(namespace))
            keys_b = sorted(incremental.storage.embeddings.keys(namespace))
            assert keys_a == keys_b
            for key in keys_a:
                np.testing.assert_allclose(
                    bootstrap.storage.embeddings.get(namespace, key),
                    incremental.storage.embeddings.get(namespace, key),
                )
        assert len(bootstrap.table_profiles) == len(incremental.table_profiles)

    def test_split_lake_adds_equal_bootstrap(self, overlap_lake):
        """Adding the lake in two chunks equals adding it in one call."""
        tables = overlap_lake.tables()
        first, second = DataLake("first"), DataLake("second")
        for table in tables[:2]:
            first.add_table(table.dataset, table)
        for table in tables[2:]:
            second.add_table(table.dataset, table)

        bootstrap = KGGovernor()
        bootstrap.add_data_lake(overlap_lake)
        chunked = KGGovernor()
        chunked.add_data_lake(first)
        chunked.add_data_lake(second)
        assert _snapshot(bootstrap.storage.graph) == _snapshot(chunked.storage.graph)


class TestIdempotentAdds:
    def test_readding_a_lake_is_a_no_op(self, overlap_lake):
        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        triples_before = governor.storage.graph.num_triples()
        profiles_before = len(governor.table_profiles)

        report = governor.add_data_lake(overlap_lake)
        assert report.num_tables_profiled == 0
        assert report.num_similarity_edges == 0
        assert governor.storage.graph.num_triples() == triples_before
        assert len(governor.table_profiles) == profiles_before

    def test_no_duplicate_metadata_triples(self, overlap_lake):
        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        governor.add_data_lake(overlap_lake)
        store = governor.storage.graph
        type_triples = list(
            store.triples(None, RDF.type, LiDSOntology.Table, graph=DATASET_GRAPH)
        )
        assert len(type_triples) == len(overlap_lake.tables())
        for triple in type_triples:
            names = store.objects(triple.subject, LiDSOntology.hasName, graph=DATASET_GRAPH)
            assert len(names) == 1


class TestSimilarityKernel:
    @pytest.mark.parametrize(
        "make_lake, options",
        [
            pytest.param(_overlap_lake, {}, id="overlap_lake"),
            pytest.param(_boolean_lake, {}, id="boolean_type_group"),
            pytest.param(_overlap_lake, {"use_label_similarity": False}, id="no_label"),
            pytest.param(_boolean_lake, {"use_content_similarity": False}, id="no_content"),
            pytest.param(
                _overlap_lake,
                {"word_model": WordEmbeddingModel(dimensions=24, seed=5)},
                id="custom_word_model",
            ),
        ],
    )
    def test_kernel_agrees_with_pairwise_reference(self, make_lake, options):
        profiles = DataProfiler().profile_data_lake(make_lake())
        builder = DataGlobalSchemaBuilder(**options)
        assert builder._use_stored_label_embeddings == ("word_model" not in options)
        kernel = builder.compute_incremental_similarities(profiles, ())
        reference = similarity_oracle.column_similarities(profiles, **options)
        assert similarity_oracle.normalize(kernel) == similarity_oracle.normalize(reference)
        # Non-trivial on every case: each enabled kind produced edges.
        assert {edge.kind for edge in reference} == {
            kind for kind in ("label", "content") if options.get(f"use_{kind}_similarity", True)
        }

    def test_constructor_takes_six_options(self):
        """One kernel, no mode switches: the option list is pinned."""
        parameters = list(inspect.signature(DataGlobalSchemaBuilder.__init__).parameters)
        assert parameters[1:] == [
            "thresholds",
            "word_model",
            "use_label_similarity",
            "use_content_similarity",
            "executor",
            "source_name",
        ]

    def test_incremental_pairs_cover_only_new_columns(self, overlap_lake):
        profiles = DataProfiler().profile_data_lake(overlap_lake)
        builder = DataGlobalSchemaBuilder()
        edges = builder.compute_incremental_similarities(profiles[-1:], profiles[:-1])
        new_table = profiles[-1].table_id
        for edge in edges:
            tables = {
                "/".join(edge.column_a.split("/")[:2]),
                "/".join(edge.column_b.split("/")[:2]),
            }
            assert new_table in tables


class TestGovernorLookups:
    def test_table_profile_dict_lookup(self, overlap_lake):
        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        profile = governor.table_profile("titanic", "train")
        assert profile is not None and profile.table_name == "train"
        assert governor.table_profile("titanic", "missing") is None


class TestEmbeddingOverwrite:
    def test_put_overwrite_updates_in_place(self):
        from repro.embeddings.store import EmbeddingStore

        store = EmbeddingStore()
        store.put("column", "c1", np.array([1.0, 0.0, 0.0]))
        store.put("column", "c2", np.array([0.0, 1.0, 0.0]))
        index_before = store._indexes["column"]
        store.put("column", "c1", np.array([0.0, 0.0, 1.0]))
        # The index is updated in place, not rebuilt.
        assert store._indexes["column"] is index_before
        assert store.count("column") == 2
        results = store.search("column", np.array([0.0, 0.0, 1.0]), k=1)
        assert results[0][0] == "c1"
        np.testing.assert_allclose(store.get("column", "c1"), [0.0, 0.0, 1.0])


class TestLinkerCache:
    def test_cache_hit_and_invalidation(self, overlap_lake):
        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        linker = governor.linker
        store = governor.storage.graph
        first = linker._known_tables_for(store)
        assert linker._known_tables_for(store) is first  # cache hit
        governor.add_table(
            Table.from_dict("extra", {"age": [1, 2, 3], "y": [0, 1, 0]}),
            dataset_name="extras",
        )
        refreshed = linker._known_tables_for(store)
        assert refreshed is not first
        assert ("extras", "extra") in refreshed

    def test_cache_detects_count_preserving_mutations(self, overlap_lake):
        """A remove-then-add that keeps the triple count must not serve stale data."""
        from repro.rdf import Literal

        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        linker = governor.linker
        store = governor.storage.graph
        cached = linker._known_tables_for(store)
        table_node = cached[("titanic", "train")]
        store.remove(table_node, LiDSOntology.hasName, Literal("train"), graph=DATASET_GRAPH)
        store.add(table_node, LiDSOntology.hasName, Literal("renamed"), graph=DATASET_GRAPH)
        refreshed = linker._known_tables_for(store)
        assert ("titanic", "renamed") in refreshed
        assert ("titanic", "train") not in refreshed

    def test_cache_survives_pipeline_graph_writes(self, overlap_lake):
        """Writes to non-dataset graphs keep the cache warm (the whole point)."""
        from repro.kg.ontology import pipeline_graph_uri

        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        linker = governor.linker
        store = governor.storage.graph
        first = linker._known_tables_for(store)
        store.add(
            LiDSOntology.Pipeline, RDF.type, LiDSOntology.Pipeline,
            graph=pipeline_graph_uri("p1"),
        )
        assert linker._known_tables_for(store) is first


class TestIndexAwareSPARQL:
    QUERIES = [
        "SELECT ?t WHERE { ?t a kglids:Table }",
        """
        SELECT ?col ?name WHERE {
            ?col kglids:hasName ?name .
            ?col a kglids:Column .
            ?col kglids:isPartOf ?table .
            ?table kglids:hasName "train" .
        }
        """,
        """
        SELECT ?c1 ?c2 ?score WHERE {
            ?c1 a kglids:Column .
            ?c2 a kglids:Column .
            << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
        }
        """,
        """
        SELECT ?type (COUNT(?col) AS ?n) WHERE {
            ?col a kglids:Column .
            ?col kglids:hasFineGrainedType ?type .
        } GROUP BY ?type ORDER BY ?type
        """,
    ]

    def test_optimizer_preserves_semantics(self, overlap_lake):
        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        store = governor.storage.graph
        optimized_engine = SPARQLEngine(store)
        for query in self.QUERIES:
            optimized = optimized_engine.select(query)
            naive = sparql_oracle.select(store, query)
            assert sorted(map(str, optimized.rows)) == sorted(map(str, naive.rows))
            assert len(optimized) > 0  # queries are non-trivial on this graph

    def test_estimate_matches_bounds_actual_matches(self, overlap_lake):
        governor = KGGovernor()
        governor.add_data_lake(overlap_lake)
        store = governor.storage.graph
        patterns = [
            (None, RDF.type, LiDSOntology.Column),
            (None, LiDSOntology.hasName, None),
            (None, None, None),
        ]
        for subject, predicate, obj in patterns:
            actual = sum(1 for _ in store.match(subject, predicate, obj))
            assert store.estimate_matches(subject, predicate, obj) >= actual
