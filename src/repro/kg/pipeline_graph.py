"""Pipeline named graphs and the library hierarchy graph.

Each abstracted pipeline is written into its own named graph (the RDF notion
of modularity the paper relies on), holding statement nodes with code flow,
data flow, control-flow type, statement text, library calls and parameters.
Library hierarchy edges accumulate in a shared library graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.kg.ontology import (
    LIBRARY_GRAPH,
    LiDSOntology,
    dataset_uri,
    library_uri,
    pipeline_graph_uri,
    pipeline_uri,
    statement_uri,
)
from repro.pipelines.abstraction import AbstractedPipeline
from repro.rdf import Literal, QuadStore, RDF, RDFS, URIRef


class PipelineGraphBuilder:
    """Writes abstracted pipelines and the library hierarchy into the store."""

    def __init__(self, include_default_parameters: bool = True):
        #: When False, only explicitly-set parameters are recorded (this is the
        #: behaviour of general-purpose abstraction tools like GraphGen4Code
        #: and what the AutoML comparison of Section 4.4 hinges on).
        self.include_default_parameters = include_default_parameters

    # ------------------------------------------------------------------- API
    def add_pipeline(self, abstraction: AbstractedPipeline, store: QuadStore) -> URIRef:
        """Write one pipeline into its named graph; returns the graph URI."""
        ontology = LiDSOntology
        graph = pipeline_graph_uri(abstraction.pipeline_id)
        pipeline_node = pipeline_uri(abstraction.pipeline_id)
        script = abstraction.script
        rows: List[tuple] = [
            (pipeline_node, RDF.type, ontology.Pipeline),
            (pipeline_node, ontology.hasName, Literal(abstraction.pipeline_id)),
            (pipeline_node, RDFS.label, Literal(abstraction.pipeline_id)),
            (pipeline_node, ontology.hasAuthor, Literal(script.author)),
            (pipeline_node, ontology.hasVotes, Literal(int(script.votes))),
        ]
        if script.score is not None:
            rows.append((pipeline_node, ontology.hasScore, Literal(float(script.score))))
        if script.task:
            rows.append((pipeline_node, ontology.hasTaskType, Literal(script.task)))
        if script.date:
            rows.append((pipeline_node, ontology.hasDate, Literal(script.date)))
        if script.dataset_name:
            rows.append((pipeline_node, ontology.reads, dataset_uri(script.dataset_name)))
        for statement in abstraction.statements:
            rows += self._statement_rows(abstraction, statement, pipeline_node)
        store.add_many(rows, graph)
        self.add_call_hierarchy(abstraction, store)
        return graph

    def add_call_hierarchy(self, abstraction: AbstractedPipeline, store: QuadStore) -> None:
        """Write the library-hierarchy edges implied by one pipeline's calls.

        Calls are walked sorted: ``calls_used`` is a set, and the order new
        terms are interned in fixes their ids — which must not depend on the
        interpreter's hash seed.
        """
        self.add_library_hierarchy(
            (edge for call in sorted(abstraction.calls_used) for edge in _call_hierarchy(call)), store
        )

    def add_pipelines(
        self, abstractions: Iterable[AbstractedPipeline], store: QuadStore
    ) -> List[URIRef]:
        """Write a collection of pipelines; returns the named-graph URIs."""
        return [self.add_pipeline(abstraction, store) for abstraction in abstractions]

    # -------------------------------------------------------------- internals
    def _statement_rows(self, abstraction, statement, pipeline_node) -> List[tuple]:
        ontology = LiDSOntology
        statement_node = statement_uri(abstraction.pipeline_id, statement.index)
        rows: List[tuple] = [
            (statement_node, RDF.type, ontology.Statement),
            (statement_node, ontology.isPartOf, pipeline_node),
            (statement_node, ontology.hasStatementText, Literal(statement.text)),
            (statement_node, ontology.hasControlFlowType, Literal(statement.control_flow)),
        ]
        if statement.next_statement is not None:
            following = statement_uri(abstraction.pipeline_id, statement.next_statement)
            rows.append((statement_node, ontology.hasNextStatement, following))
        rows += [
            (statement_node, ontology.hasDataFlowTo, statement_uri(abstraction.pipeline_id, target))
            for target in statement.data_flow_next
        ]
        for call in statement.calls:
            if "." not in call.full_name:
                continue
            rows.append((statement_node, ontology.callsFunction, library_uri(call.full_name)))
            rows.append((statement_node, ontology.callsLibrary, library_uri(call.library)))
            parameters = dict(call.parameter_names)
            parameters.update(call.keyword_arguments)
            if self.include_default_parameters:
                for name, value in call.default_parameters.items():
                    parameters.setdefault(name, value)
            for name, value in parameters.items():
                parameter_node = library_uri(f"{call.full_name}/{name}")
                rows += [
                    (parameter_node, RDF.type, ontology.Parameter),
                    (parameter_node, ontology.hasName, Literal(name)),
                    (statement_node, ontology.hasParameter, parameter_node),
                    (parameter_node, ontology.hasParameterValue, Literal(repr(value))),
                ]
        return rows

    # ---------------------------------------------------------- library graph
    @staticmethod
    def add_library_hierarchy(edges: Iterable[Tuple[str, str]], store: QuadStore) -> None:
        """Write ``(child, parent)`` library hierarchy edges to the library graph."""
        ontology = LiDSOntology
        rows: List[tuple] = []
        for child, parent in edges:
            child_node = library_uri(child)
            parent_node = library_uri(parent)
            rows += [
                (child_node, RDF.type, _library_element_type(child)),
                (child_node, ontology.hasName, Literal(child)),
                (parent_node, RDF.type, _library_element_type(parent)),
                (parent_node, ontology.hasName, Literal(parent)),
                (child_node, ontology.isSubElementOf, parent_node),
            ]
        store.add_many(rows, LIBRARY_GRAPH)


def _library_element_type(qualified_name: str) -> URIRef:
    """Heuristic LiDS class for a library hierarchy element."""
    ontology = LiDSOntology
    parts = qualified_name.split(".")
    if len(parts) == 1:
        return ontology.Library
    leaf = parts[-1]
    if leaf[:1].isupper():
        return ontology.Class
    if len(parts) == 2 and leaf.islower() and "_" not in leaf:
        return ontology.Package
    return ontology.Function


def _call_hierarchy(qualified_call: str) -> List[Tuple[str, str]]:
    parts = qualified_call.split(".")
    edges = []
    for i in range(len(parts) - 1, 0, -1):
        edges.append((".".join(parts[: i + 1]), ".".join(parts[:i])))
    return edges
