"""The per-quad write path of the KG writers: the differential oracle.

What ``DataGlobalSchemaBuilder``, ``PipelineGraphBuilder``,
``GlobalGraphLinker`` and the governor's table retraction did before they
wrote by the batch, moved out of ``src/``: one ``store.add`` /
``store.annotate`` per quad — a fresh URI and a fresh score ``Literal`` per
edge — and a retraction that walks ``store.match`` (id triple → decoded
``Term``s) only to hand the same three terms to ``store.remove``.  A refresh
here is the old spelling: retract the table's whole footprint, then write the
re-governed one back, where production writes only the difference
(``QuadStore.replace_nodes``).  Slow and obviously right;
``tests/test_write_path_parity.py`` drives a governor through these writers
and through the production ones and requires the same N-Quads dump, the same
dictionary rows in the same id order, the same ``GraphIndex`` contents, and
delta-log entries per commit equal to the net of this oracle's (:func:`net_ops`).

:func:`oracle_governor` builds a ``KGGovernor`` whose writers are the ones in
this file; everything that is not a store write (profiling, similarity
scoring, the service, rollback registration) is the production code.
"""

from __future__ import annotations

from repro.kg.dataset_graph import DataGlobalSchemaBuilder
from repro.kg.governor import KGGovernor
from repro.kg.linker import GlobalGraphLinker, LinkReport
from repro.kg.ontology import (
    DATASET_GRAPH,
    LIBRARY_GRAPH,
    LiDSOntology,
    column_uri,
    dataset_uri,
    library_uri,
    pipeline_graph_uri,
    pipeline_uri,
    source_uri,
    statement_uri,
    table_uri,
)
from repro.kg.pipeline_graph import (
    PipelineGraphBuilder,
    _call_hierarchy,
    _library_element_type,
)
from repro.rdf import Literal, RDF, RDFS


class OracleSchemaBuilder(DataGlobalSchemaBuilder):
    """Algorithm 3's writers, one quad at a time."""

    def apply_incremental(self, new_profiles, plan, store, replacing=()):
        # The oracle governor retracted the stale footprints already.
        assert not replacing
        self._write_metadata_subgraphs(new_profiles, store)
        self._write_similarity_edges(plan.edges, store)
        self._write_table_relationships(plan.table_scores, store)
        return plan.edges

    def _write_metadata_subgraphs(self, table_profiles, store) -> None:
        ontology = LiDSOntology
        source = source_uri(self.source_name)
        store.add(source, RDF.type, ontology.Source, graph=DATASET_GRAPH)
        store.add(source, ontology.hasName, Literal(self.source_name), graph=DATASET_GRAPH)
        for table_profile in table_profiles:
            dataset_node = dataset_uri(table_profile.dataset_name)
            table_node = table_uri(table_profile.dataset_name, table_profile.table_name)
            store.add(dataset_node, RDF.type, ontology.Dataset, graph=DATASET_GRAPH)
            store.add(dataset_node, ontology.hasName, Literal(table_profile.dataset_name), graph=DATASET_GRAPH)
            store.add(dataset_node, ontology.hasSource, source, graph=DATASET_GRAPH)
            store.add(table_node, RDF.type, ontology.Table, graph=DATASET_GRAPH)
            store.add(table_node, ontology.hasName, Literal(table_profile.table_name), graph=DATASET_GRAPH)
            store.add(table_node, RDFS.label, Literal(table_profile.table_name), graph=DATASET_GRAPH)
            store.add(table_node, ontology.isPartOf, dataset_node, graph=DATASET_GRAPH)
            num_rows = (
                table_profile.column_profiles[0].statistics.count
                if table_profile.column_profiles
                else 0
            )
            store.add(table_node, ontology.hasTotalRows, Literal(num_rows), graph=DATASET_GRAPH)
            store.add(
                table_node,
                ontology.hasTotalColumns,
                Literal(len(table_profile.column_profiles)),
                graph=DATASET_GRAPH,
            )
            for profile in table_profile.column_profiles:
                self._write_column_metadata(profile, table_node, store)

    @staticmethod
    def _write_column_metadata(profile, table_node, store) -> None:
        ontology = LiDSOntology
        column_node = column_uri(profile.dataset_name, profile.table_name, profile.column_name)
        statistics = profile.statistics
        store.add(column_node, RDF.type, ontology.Column, graph=DATASET_GRAPH)
        store.add(column_node, ontology.hasName, Literal(profile.column_name), graph=DATASET_GRAPH)
        store.add(column_node, RDFS.label, Literal(profile.column_name), graph=DATASET_GRAPH)
        store.add(column_node, ontology.isPartOf, table_node, graph=DATASET_GRAPH)
        store.add(
            column_node, ontology.hasFineGrainedType, Literal(profile.fine_grained_type), graph=DATASET_GRAPH
        )
        store.add(column_node, ontology.hasTotalRows, Literal(statistics.count), graph=DATASET_GRAPH)
        store.add(column_node, ontology.hasMissingCount, Literal(statistics.missing_count), graph=DATASET_GRAPH)
        store.add(column_node, ontology.hasDistinctCount, Literal(statistics.distinct_count), graph=DATASET_GRAPH)
        optional_values = (
            (ontology.hasMinValue, statistics.minimum),
            (ontology.hasMaxValue, statistics.maximum),
            (ontology.hasMeanValue, statistics.mean),
            (ontology.hasStdValue, statistics.std),
            (ontology.hasTrueRatio, statistics.true_ratio),
            (ontology.hasAverageLength, statistics.average_length),
        )
        for predicate, value in optional_values:
            if value is not None:
                store.add(column_node, predicate, Literal(float(value)), graph=DATASET_GRAPH)

    def _write_similarity_edges(self, edges, store) -> None:
        ontology = LiDSOntology
        for edge in edges:
            subject = column_uri(*edge.column_a.split("/", 2))
            obj = column_uri(*edge.column_b.split("/", 2))
            predicate = (
                ontology.hasLabelSimilarity if edge.kind == "label" else ontology.hasContentSimilarity
            )
            store.annotate(
                subject, predicate, obj, ontology.withCertainty, Literal(round(edge.score, 4)), graph=DATASET_GRAPH
            )
            store.annotate(
                obj, predicate, subject, ontology.withCertainty, Literal(round(edge.score, 4)), graph=DATASET_GRAPH
            )

    def _write_table_relationships(self, table_scores, store) -> None:
        ontology = LiDSOntology
        for (table_a, table_b, kind), score in table_scores.items():
            predicate = ontology.unionableWith if kind == "unionable" else ontology.joinableWith
            subject = table_uri(*table_a.split("/", 1))
            obj = table_uri(*table_b.split("/", 1))
            store.annotate(
                subject, predicate, obj, ontology.withCertainty, Literal(round(score, 4)), graph=DATASET_GRAPH
            )
            store.annotate(
                obj, predicate, subject, ontology.withCertainty, Literal(round(score, 4)), graph=DATASET_GRAPH
            )


class OraclePipelineGraphBuilder(PipelineGraphBuilder):
    """Pipeline named graphs and the library graph, one quad at a time."""

    def add_pipeline(self, abstraction, store):
        ontology = LiDSOntology
        graph = pipeline_graph_uri(abstraction.pipeline_id)
        pipeline_node = pipeline_uri(abstraction.pipeline_id)
        script = abstraction.script
        store.add(pipeline_node, RDF.type, ontology.Pipeline, graph=graph)
        store.add(pipeline_node, ontology.hasName, Literal(abstraction.pipeline_id), graph=graph)
        store.add(pipeline_node, RDFS.label, Literal(abstraction.pipeline_id), graph=graph)
        store.add(pipeline_node, ontology.hasAuthor, Literal(script.author), graph=graph)
        store.add(pipeline_node, ontology.hasVotes, Literal(int(script.votes)), graph=graph)
        if script.score is not None:
            store.add(pipeline_node, ontology.hasScore, Literal(float(script.score)), graph=graph)
        if script.task:
            store.add(pipeline_node, ontology.hasTaskType, Literal(script.task), graph=graph)
        if script.date:
            store.add(pipeline_node, ontology.hasDate, Literal(script.date), graph=graph)
        if script.dataset_name:
            store.add(pipeline_node, ontology.reads, dataset_uri(script.dataset_name), graph=graph)
        for statement in abstraction.statements:
            self._add_statement(abstraction, statement, pipeline_node, store, graph)
        self.add_call_hierarchy(abstraction, store)
        return graph

    def add_call_hierarchy(self, abstraction, store) -> None:
        self.add_library_hierarchy(
            (edge for call in sorted(abstraction.calls_used) for edge in _call_hierarchy(call)), store
        )

    def _add_statement(self, abstraction, statement, pipeline_node, store, graph) -> None:
        ontology = LiDSOntology
        statement_node = statement_uri(abstraction.pipeline_id, statement.index)
        store.add(statement_node, RDF.type, ontology.Statement, graph=graph)
        store.add(statement_node, ontology.isPartOf, pipeline_node, graph=graph)
        store.add(statement_node, ontology.hasStatementText, Literal(statement.text), graph=graph)
        store.add(statement_node, ontology.hasControlFlowType, Literal(statement.control_flow), graph=graph)
        if statement.next_statement is not None:
            store.add(
                statement_node,
                ontology.hasNextStatement,
                statement_uri(abstraction.pipeline_id, statement.next_statement),
                graph=graph,
            )
        for target in statement.data_flow_next:
            store.add(
                statement_node, ontology.hasDataFlowTo, statement_uri(abstraction.pipeline_id, target), graph=graph
            )
        for call in statement.calls:
            if "." not in call.full_name:
                continue
            store.add(statement_node, ontology.callsFunction, library_uri(call.full_name), graph=graph)
            store.add(statement_node, ontology.callsLibrary, library_uri(call.library), graph=graph)
            parameters = dict(call.parameter_names)
            parameters.update(call.keyword_arguments)
            if self.include_default_parameters:
                for name, value in call.default_parameters.items():
                    parameters.setdefault(name, value)
            for name, value in parameters.items():
                parameter_node = library_uri(f"{call.full_name}/{name}")
                store.add(parameter_node, RDF.type, ontology.Parameter, graph=graph)
                store.add(parameter_node, ontology.hasName, Literal(name), graph=graph)
                store.add(statement_node, ontology.hasParameter, parameter_node, graph=graph)
                store.add(parameter_node, ontology.hasParameterValue, Literal(repr(value)), graph=graph)

    @staticmethod
    def add_library_hierarchy(edges, store) -> None:
        ontology = LiDSOntology
        for child, parent in edges:
            child_node = library_uri(child)
            parent_node = library_uri(parent)
            store.add(child_node, RDF.type, _library_element_type(child), graph=LIBRARY_GRAPH)
            store.add(child_node, ontology.hasName, Literal(child), graph=LIBRARY_GRAPH)
            store.add(parent_node, RDF.type, _library_element_type(parent), graph=LIBRARY_GRAPH)
            store.add(parent_node, ontology.hasName, Literal(parent), graph=LIBRARY_GRAPH)
            store.add(child_node, ontology.isSubElementOf, parent_node, graph=LIBRARY_GRAPH)


class OracleLinker(GlobalGraphLinker):
    """Predicted reads materialized one ``annotate`` at a time."""

    def link_pipeline(self, abstraction, store) -> LinkReport:
        ontology = LiDSOntology
        report = LinkReport(pipeline_id=abstraction.pipeline_id)
        graph = pipeline_graph_uri(abstraction.pipeline_id)
        pipeline_node = pipeline_uri(abstraction.pipeline_id)
        known_tables = self._known_tables_for(store)
        linked_table_nodes = []
        for dataset_name, table_name in abstraction.predicted_table_reads:
            resolved = self._resolve_table(dataset_name, table_name, known_tables)
            if resolved is None:
                report.pruned_tables.append(f"{dataset_name}/{table_name}")
                continue
            table_node = table_uri(*resolved)
            store.annotate(
                pipeline_node,
                ontology.reads,
                table_node,
                ontology.withCertainty,
                Literal(self.prediction_score),
                graph=graph,
            )
            linked_table_nodes.append(table_node)
            report.linked_tables.append("/".join(resolved))
        known_columns = self._known_columns(store, linked_table_nodes)
        for column_name in abstraction.predicted_column_reads:
            resolved_column = known_columns.get(column_name.lower())
            if resolved_column is None:
                report.pruned_columns.append(column_name)
                continue
            store.annotate(
                pipeline_node,
                ontology.readsColumn,
                resolved_column,
                ontology.withCertainty,
                Literal(self.prediction_score),
                graph=graph,
            )
            report.linked_columns.append(column_name)
        return report


class OracleGovernor(KGGovernor):
    """A governor that retracts by match → decode → ``remove``, up front.

    Retraction and refresh both ask ``_retire_footprint`` for the nodes whose
    triples to replace; this one removes those triples quad by quad right
    away and hands the production code no nodes, so a refresh is the whole
    footprint retracted and then written back.
    """

    def _retire_footprint(self, dataset_name, table_name, profile):
        table_node = table_uri(dataset_name, table_name)
        column_nodes = [
            column_uri(p.dataset_name, p.table_name, p.column_name)
            for p in profile.column_profiles
        ]
        nodes = [table_node] + column_nodes
        if not any(dataset == dataset_name for dataset, _ in self._profiles_by_key):
            nodes.append(dataset_uri(dataset_name))
        retract_per_quad(self.storage.graph, nodes, DATASET_GRAPH)
        self.storage.embeddings.remove("table", str(table_node))
        for column_node in column_nodes:
            self.storage.embeddings.remove("column", str(column_node))
        return []


def retract_per_quad(store, nodes, graph) -> None:
    """Every triple of ``graph`` touching ``nodes``, removed one quad at a time:
    per node its subject, object, quoted-subject and quoted-object matches."""
    for node in nodes:
        for matches in (
            store.match(subject=node, graph=graph),
            store.match(obj=node, graph=graph),
            store.match_quoted(inner_subject=node, graph=graph),
            store.match_quoted(inner_object=node, graph=graph),
        ):
            for triple, graph_name in list(matches):
                store.remove(triple.subject, triple.predicate, triple.object, graph=graph_name)


def oracle_governor(storage) -> OracleGovernor:
    """A governor over ``storage`` whose every store write is per quad."""
    governor = OracleGovernor(storage=storage, schema_builder=OracleSchemaBuilder())
    governor.pipeline_builder = OraclePipelineGraphBuilder()
    governor.linker = OracleLinker()
    return governor


def net_ops(ops) -> list:
    """One commit's delta-log ops with each remove-then-add of a row cancelled.

    What the commit changed, in the order it was written: a row the oracle
    retracted and wrote back is in neither list, every other op keeps its
    place.  A ``drop`` cancels nothing and ends pairing in its graph.
    """
    keep = [True] * len(ops)
    open_ops = {}  # (graph, row) -> position of its last unpaired op
    for position, (kind, graph, row) in enumerate(ops):
        if kind == "drop":
            open_ops = {key: at for key, at in open_ops.items() if key[0] != graph}
            continue
        earlier = open_ops.pop((graph, row), None)
        if earlier is not None and ops[earlier][0] != kind:
            keep[earlier] = keep[position] = False
        else:
            open_ops[(graph, row)] = position
    return [op for op, kept in zip(ops, keep) if kept]


# ------------------------------------------------------------ index contents
def dictionary_rows(store) -> tuple:
    """A store's whole term dictionary: its ``(id, n3)`` text rows and its
    flat ``(id, s, p, o)`` quoted-triple runs, both in id order."""
    dictionary = store.dictionary
    return dictionary.export_rows(1), dictionary.export_quoted_rows(1)


def index_contents(index) -> dict:
    """Everything a ``GraphIndex`` holds, as plain comparable values."""
    return {
        "triples": set(index.triples),
        "by_subject": {key: set(bucket) for key, bucket in index.by_subject.items()},
        "by_predicate": {key: set(bucket) for key, bucket in index.by_predicate.items()},
        "by_object": {key: set(bucket) for key, bucket in index.by_object.items()},
        "by_quoted_subject": {key: set(bucket) for key, bucket in index.by_quoted_subject.items()},
        "by_quoted_object": {key: set(bucket) for key, bucket in index.by_quoted_object.items()},
        "predicate_stats": {
            key: (stats.count, dict(stats.subjects), dict(stats.objects))
            for key, stats in index.predicate_stats.items()
        },
    }


def assert_index_is_tight(index) -> None:
    """No emptied bucket survives, and the index is what its triples rebuild to."""
    from repro.rdf import GraphIndex

    contents = index_contents(index)
    for name, buckets in contents.items():
        if name not in ("triples", "predicate_stats"):
            assert all(buckets.values()), f"{name} keeps an emptied bucket"
    fresh = GraphIndex(index.dictionary)
    for triple in sorted(index.triples):
        fresh.add(triple)
    assert contents == index_contents(fresh)
