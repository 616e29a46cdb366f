"""The Global Graph Linker.

Dataset-usage analysis only *predicts* which tables and columns a pipeline
reads; the linker verifies each prediction against the Data Global Schema and
materializes ``reads`` / ``readsColumn`` edges (annotated with a prediction
score) for the verified ones.  Unverified predictions — e.g. the user-defined
``NormalizedAge`` column of the running example — are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.kg.ontology import (
    DATASET_GRAPH,
    LiDSOntology,
    column_uri,
    pipeline_graph_uri,
    pipeline_uri,
    table_uri,
)
from repro.pipelines.abstraction import AbstractedPipeline
from repro.rdf import Literal, QuadStore, QuotedTriple, RDF, URIRef


@dataclass
class LinkReport:
    """What the linker verified and what it pruned for one pipeline."""

    pipeline_id: str
    linked_tables: List[str] = field(default_factory=list)
    linked_columns: List[str] = field(default_factory=list)
    pruned_tables: List[str] = field(default_factory=list)
    pruned_columns: List[str] = field(default_factory=list)


class GlobalGraphLinker:
    """Links pipeline graphs to the dataset graph."""

    def __init__(self, prediction_score: float = 0.92):
        #: Confidence attached to materialized predicted links (the paper
        #: annotates predicted edges with a score, e.g. 0.92 in Figure 2).
        self.prediction_score = prediction_score

    def _known_tables_for(self, store: QuadStore) -> Dict[Tuple[str, str], URIRef]:
        """``_known_tables(store)``, kept until the dataset graph next changes.

        Any dataset-graph write (including remove-then-add sequences that
        leave the triple count unchanged) drops it, while writes to pipeline
        graphs — like the linker's own annotate calls — keep it warm across
        link_pipelines.
        """
        return store.derived_view(
            DATASET_GRAPH, "linker.known_tables", lambda *_: self._known_tables(store)
        )

    # ------------------------------------------------------------------- API
    def link_pipeline(
        self, abstraction: AbstractedPipeline, store: QuadStore
    ) -> LinkReport:
        """Verify and materialize the predicted reads of one pipeline."""
        ontology = LiDSOntology
        report = LinkReport(pipeline_id=abstraction.pipeline_id)
        graph = pipeline_graph_uri(abstraction.pipeline_id)
        pipeline_node = pipeline_uri(abstraction.pipeline_id)
        known_tables = self._known_tables_for(store)
        score = Literal(self.prediction_score)
        rows: List[tuple] = []

        def read(predicate: URIRef, node: URIRef) -> None:
            """A verified read: asserted, and annotated with the prediction score."""
            rows.append((pipeline_node, predicate, node))
            rows.append((QuotedTriple(pipeline_node, predicate, node), ontology.withCertainty, score))

        linked_table_nodes: List[URIRef] = []
        for dataset_name, table_name in abstraction.predicted_table_reads:
            resolved = self._resolve_table(dataset_name, table_name, known_tables)
            if resolved is None:
                report.pruned_tables.append(f"{dataset_name}/{table_name}")
                continue
            table_node = table_uri(*resolved)
            read(ontology.reads, table_node)
            linked_table_nodes.append(table_node)
            report.linked_tables.append("/".join(resolved))
        known_columns = self._known_columns(store, linked_table_nodes)
        for column_name in abstraction.predicted_column_reads:
            resolved_column = known_columns.get(column_name.lower())
            if resolved_column is None:
                report.pruned_columns.append(column_name)
                continue
            read(ontology.readsColumn, resolved_column)
            report.linked_columns.append(column_name)
        store.add_many(rows, graph)
        return report

    def link_pipelines(
        self, abstractions: Sequence[AbstractedPipeline], store: QuadStore
    ) -> List[LinkReport]:
        return [self.link_pipeline(abstraction, store) for abstraction in abstractions]

    # -------------------------------------------------------------- internals
    @staticmethod
    def _known_tables(store: QuadStore) -> Dict[Tuple[str, str], URIRef]:
        """Map of ``(dataset name lower, table name lower) -> table node``."""
        ontology = LiDSOntology
        known: Dict[Tuple[str, str], URIRef] = {}
        for triple in store.triples(None, RDF.type, ontology.Table, graph=DATASET_GRAPH):
            table_node = triple.subject
            table_name = store.value(table_node, ontology.hasName, graph=DATASET_GRAPH, default="")
            dataset_node = store.value(table_node, ontology.isPartOf, graph=DATASET_GRAPH)
            dataset_name = (
                store.value(dataset_node, ontology.hasName, graph=DATASET_GRAPH, default="")
                if dataset_node is not None
                else ""
            )
            known[(str(dataset_name).lower(), str(table_name).lower())] = table_node
        return known

    @staticmethod
    def _resolve_table(
        dataset_name: Optional[str], table_name: str, known: Dict[Tuple[str, str], URIRef]
    ) -> Optional[Tuple[str, str]]:
        table_key = str(table_name).lower()
        if dataset_name is not None and (str(dataset_name).lower(), table_key) in known:
            return str(dataset_name), str(table_name)
        for (known_dataset, known_table) in known:
            if known_table == table_key:
                return known_dataset, known_table
        return None

    @staticmethod
    def _known_columns(
        store: QuadStore, table_nodes: Sequence[URIRef]
    ) -> Dict[str, URIRef]:
        """Columns of the linked tables, keyed by lower-cased name."""
        ontology = LiDSOntology
        known: Dict[str, URIRef] = {}
        for table_node in table_nodes:
            for triple in store.triples(None, ontology.isPartOf, table_node, graph=DATASET_GRAPH):
                column_node = triple.subject
                if not store.contains(column_node, RDF.type, ontology.Column, graph=DATASET_GRAPH):
                    continue
                column_name = store.value(column_node, ontology.hasName, graph=DATASET_GRAPH, default="")
                known.setdefault(str(column_name).lower(), column_node)
        return known
