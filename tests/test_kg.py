"""Unit and integration tests for the LiDS ontology and KG construction."""

import pytest

from repro.kg import (
    DataGlobalSchemaBuilder,
    GlobalGraphLinker,
    KGGovernor,
    KGLiDSStorage,
    LiDSOntology,
    PipelineGraphBuilder,
    SimilarityThresholds,
    column_uri,
    dataset_uri,
    pipeline_graph_uri,
    table_uri,
)
from repro.kg.ontology import DATASET_GRAPH, LIBRARY_GRAPH, library_uri, pipeline_uri
from repro.pipelines import PipelineAbstractor, PipelineScript
from repro.profiler import DataProfiler
from repro.rdf import KGLIDS_ONTOLOGY, QuadStore, RDF
from repro.tabular import DataLake, Table


class TestOntology:
    def test_class_and_property_counts_match_paper(self):
        assert len(LiDSOntology.CLASSES) == 13
        assert len(LiDSOntology.OBJECT_PROPERTIES) == 19
        assert len(LiDSOntology.DATA_PROPERTIES) == 22

    def test_all_terms_under_ontology_namespace(self):
        for term in LiDSOntology.CLASSES + LiDSOntology.OBJECT_PROPERTIES + LiDSOntology.DATA_PROPERTIES:
            assert str(term).startswith(str(KGLIDS_ONTOLOGY))

    def test_ontology_triples_emitted(self):
        triples = LiDSOntology.ontology_triples()
        assert len(triples) >= (13 + 19 + 22) * 2

    def test_uri_minting_is_slugged(self):
        assert "heart_failure" in str(dataset_uri("heart failure"))
        assert str(table_uri("d", "t")).endswith("/d/t")
        assert str(column_uri("d", "t", "a b")).endswith("/d/t/a_b")
        assert str(pipeline_graph_uri("p 1")) != str(pipeline_uri("p 1"))


class TestDataGlobalSchema:
    @pytest.fixture()
    def profiles(self, small_lake):
        return DataProfiler().profile_data_lake(small_lake)

    def test_metadata_subgraph_written(self, profiles):
        store, builder = QuadStore(), DataGlobalSchemaBuilder()
        builder.apply_incremental(profiles, builder.plan_incremental(profiles, ()), store)
        ontology = LiDSOntology
        tables = list(store.triples(None, RDF.type, ontology.Table, graph=DATASET_GRAPH))
        columns = list(store.triples(None, RDF.type, ontology.Column, graph=DATASET_GRAPH))
        assert len(tables) == 2
        assert len(columns) == sum(len(p.column_profiles) for p in profiles)
        train = table_uri("titanic", "train")
        assert store.value(train, ontology.hasTotalRows, graph=DATASET_GRAPH) == 10

    def test_similarity_edges_have_scores(self, profiles):
        store, builder = QuadStore(), DataGlobalSchemaBuilder()
        edges = builder.apply_incremental(profiles, builder.plan_incremental(profiles, ()), store)
        ontology = LiDSOntology
        age_a = column_uri("titanic", "train", "Age")
        age_b = column_uri("heart-uci", "heart", "age")
        label_edges = [e for e in edges if e.kind == "label"]
        assert any({e.column_a, e.column_b} == {"titanic/train/Age", "heart-uci/heart/age"} for e in label_edges)
        score = store.annotation(
            age_a, ontology.hasLabelSimilarity, age_b, ontology.withCertainty, graph=DATASET_GRAPH
        )
        assert score is not None and score >= 0.8

    def test_same_table_columns_not_compared(self, profiles):
        edges = DataGlobalSchemaBuilder().compute_incremental_similarities(profiles, ())
        for edge in edges:
            table_a = "/".join(edge.column_a.split("/")[:2])
            table_b = "/".join(edge.column_b.split("/")[:2])
            assert table_a != table_b

    def test_thresholds_control_edge_count(self, small_lake, profiles):
        sweep = {
            "strict": SimilarityThresholds(alpha=0.99, beta=0.999, theta=0.9999),
            "default": SimilarityThresholds(),
            "loose": SimilarityThresholds(alpha=0.5, beta=0.5, theta=0.8),
        }
        counts = {}
        for name, thresholds in sweep.items():
            builder = DataGlobalSchemaBuilder(thresholds)
            counts[name] = len(builder.compute_incremental_similarities(profiles, ()))
            # The edge count a governed lake reports is the builder's count.
            governor = KGGovernor(schema_builder=DataGlobalSchemaBuilder(thresholds))
            assert governor.add_data_lake(small_lake).num_similarity_edges == counts[name], name
        assert counts["strict"] <= counts["default"] <= counts["loose"]

    def test_label_similarity_can_be_disabled(self, profiles):
        builder = DataGlobalSchemaBuilder(use_label_similarity=False)
        edges = builder.compute_incremental_similarities(profiles, ())
        assert all(edge.kind != "label" for edge in edges)

    def test_unionable_edges_written(self, profiles):
        store, builder = QuadStore(), DataGlobalSchemaBuilder()
        edges = builder.apply_incremental(profiles, builder.plan_incremental(profiles, ()), store)
        relationships = builder.derive_table_relationships(profiles, edges)
        assert any(kind == "unionable" for (_, _, kind) in relationships)
        for score in relationships.values():
            assert 0.0 <= score <= 1.0

    def test_greedy_matching_prevents_score_inflation(self):
        pair_scores = {
            ("a/x/c1", "b/y/d1"): 0.9,
            ("a/x/c1", "b/y/d2"): 0.8,
            ("a/x/c2", "b/y/d1"): 0.7,
        }
        total = DataGlobalSchemaBuilder._greedy_one_to_one(pair_scores)
        assert total == pytest.approx(0.9)  # c1-d1 matched; c2 and d2 remain unmatched


class TestPipelineGraphAndLinker:
    @pytest.fixture()
    def abstraction(self, example_pipeline_source):
        script = PipelineScript(
            "titanic_p1", example_pipeline_source, dataset_name="titanic", votes=10, task="classification"
        )
        return PipelineAbstractor().abstract_script(script)

    def test_pipeline_named_graph_contents(self, abstraction):
        store = QuadStore()
        graph = PipelineGraphBuilder().add_pipeline(abstraction, store)
        ontology = LiDSOntology
        statements = list(store.triples(None, RDF.type, ontology.Statement, graph=graph))
        assert len(statements) == len(abstraction.statements)
        assert store.contains(pipeline_uri("titanic_p1"), RDF.type, ontology.Pipeline, graph=graph)
        # Default parameters are recorded (the AutoML-relevant behaviour).
        parameter_nodes = store.objects(statements[0].subject, ontology.hasParameter, graph=graph)
        assert isinstance(parameter_nodes, list)

    def test_default_parameters_can_be_excluded(self, abstraction):
        with_defaults, without_defaults = QuadStore(), QuadStore()
        PipelineGraphBuilder(include_default_parameters=True).add_pipeline(abstraction, with_defaults)
        PipelineGraphBuilder(include_default_parameters=False).add_pipeline(abstraction, without_defaults)
        assert len(with_defaults) > len(without_defaults)

    def test_library_hierarchy_graph(self, abstraction):
        store = QuadStore()
        PipelineGraphBuilder().add_pipeline(abstraction, store)
        ontology = LiDSOntology
        assert store.contains(
            library_uri("sklearn.ensemble"), ontology.isSubElementOf, library_uri("sklearn"), graph=LIBRARY_GRAPH
        )

    def test_linker_verifies_and_prunes(self, abstraction, small_lake):
        storage_store = QuadStore()
        profiles = DataProfiler().profile_data_lake(small_lake)
        builder = DataGlobalSchemaBuilder()
        builder.apply_incremental(profiles, builder.plan_incremental(profiles, ()), storage_store)
        PipelineGraphBuilder().add_pipeline(abstraction, storage_store)
        report = GlobalGraphLinker().link_pipeline(abstraction, storage_store)
        assert "titanic/train" in report.linked_tables
        assert "Survived" in report.linked_columns
        # NormalizedAge does not exist in the dataset graph -> pruned.
        assert "NormalizedAge" in report.pruned_columns
        ontology = LiDSOntology
        graph = pipeline_graph_uri("titanic_p1")
        assert storage_store.contains(
            pipeline_uri("titanic_p1"), ontology.reads, table_uri("titanic", "train"), graph=graph
        )


class TestGovernorAndStorage:
    def test_bootstrap_reports(self, small_lake, example_pipeline_source):
        governor = KGGovernor()
        report = governor.bootstrap(
            lake=small_lake,
            scripts=[PipelineScript("p1", example_pipeline_source, dataset_name="titanic", votes=5)],
        )
        assert report.num_tables_profiled == 2
        assert report.num_pipelines_abstracted == 1
        assert governor.storage.graph.num_triples() > 0
        assert governor.storage.embeddings.count("table") == 2
        assert governor.table_profile("titanic", "train") is not None
        assert governor.table_profile("nope", "nope") is None

    def test_incremental_add_table(self, small_lake):
        governor = KGGovernor()
        governor.add_data_lake(small_lake)
        before = governor.storage.graph.num_triples()
        extra = Table.from_dict("extra", {"age": [1, 2, 3], "y": [0, 1, 0]})
        governor.add_table(extra, dataset_name="extras")
        assert governor.storage.graph.num_triples() > before
        assert governor.table_profile("extras", "extra") is not None

    def test_storage_model_manager(self):
        storage = KGLiDSStorage()
        storage.register_model("m", object())
        assert storage.has_model("m")
        assert storage.list_models() == ["m"]
        assert storage.get_model("m") is not None
        with pytest.raises(KeyError):
            storage.get_model("missing")

    def test_storage_statistics_and_query(self, small_lake):
        governor = KGGovernor()
        governor.add_data_lake(small_lake)
        stats = governor.storage.statistics()
        assert stats["num_triples"] > 0
        assert stats["num_embeddings"] > 0
        result = governor.storage.query("SELECT ?t WHERE { ?t a kglids:Table }")
        assert len(result) == 2
