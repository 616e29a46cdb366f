"""GraphGen4Code-style general-purpose code knowledge graphs.

GraphGen4Code abstracts arbitrary source code (via WALA) into a verbose RDF
graph: every expression becomes a node, statements carry their source
locations, positional parameters are modelled with explicit ordering triples,
and local variable names are materialized.  None of that is specific to data
science, which is why its graphs are an order of magnitude larger than the
LiDS graph and take far longer to produce (Tables 3 and 4), and why the
AutoML pipeline built on it lacks hyperparameter *names* (only positional
order is recorded).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.pipelines.abstraction import PipelineScript
from repro.rdf import Literal, QuadStore, RDF, URIRef
from repro.rdf.namespace import Namespace

#: Namespace used by the generated general-purpose code graphs.
G4C = Namespace("http://purl.org/twc/graph4code/")

#: The modelled aspects reported in Table 4, in report order.
G4C_ASPECTS = (
    "statement_location",
    "variable_names",
    "func_parameter_order",
    "column_reads",
    "library_calls",
    "code_flow",
    "data_flow",
    "control_flow_type",
    "func_parameters",
    "statement_text",
)


@dataclass
class G4CReport:
    """Size/time bookkeeping for one corpus abstraction run."""

    num_pipelines: int = 0
    triples_by_aspect: Dict[str, int] = field(default_factory=dict)


class GraphGen4Code:
    """Generates a verbose, general-purpose code KG for pipeline scripts."""

    def __init__(self):
        self.report = G4CReport()

    # ------------------------------------------------------------------- API
    def abstract_scripts(
        self, scripts: Sequence[PipelineScript], store: Optional[QuadStore] = None
    ) -> QuadStore:
        """Abstract a corpus of scripts into a quad store (one graph per script)."""
        store = store or QuadStore()
        self.report = G4CReport(num_pipelines=len(scripts))
        self.report.triples_by_aspect = {aspect: 0 for aspect in G4C_ASPECTS}
        for script in scripts:
            with store.write_batch():  # one commit per script, not per triple
                self._abstract_script(script, store)
        return store

    # -------------------------------------------------------------- internals
    def _abstract_script(self, script: PipelineScript, store: QuadStore) -> None:
        graph = G4C.term(f"graph/{script.pipeline_id}")
        try:
            tree = ast.parse(script.source_code)
        except SyntaxError:
            return
        statement_index = 0
        previous_statement: Optional[URIRef] = None
        variable_definitions: Dict[str, URIRef] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            statement_index += 1
            statement_node = G4C.term(f"{script.pipeline_id}/stmt{statement_index}")
            text = ast.unparse(node) if hasattr(ast, "unparse") else ""
            self._add(store, graph, statement_node, RDF.type, G4C.Statement, None)
            self._add(
                store, graph, statement_node, G4C.sourceText, Literal(text), "statement_text"
            )
            # Source locations (line and column, start and end) — local
            # syntactic information KGLiDS deliberately does not keep.
            for predicate, value in (
                (G4C.startsAtLine, getattr(node, "lineno", 0)),
                (G4C.endsAtLine, getattr(node, "end_lineno", 0) or 0),
                (G4C.startsAtColumn, getattr(node, "col_offset", 0)),
                (G4C.endsAtColumn, getattr(node, "end_col_offset", 0) or 0),
            ):
                self._add(
                    store, graph, statement_node, predicate, Literal(int(value)), "statement_location"
                )
            control = "loop" if isinstance(node, (ast.For, ast.While)) else (
                "conditional" if isinstance(node, ast.If) else "module"
            )
            self._add(
                store, graph, statement_node, G4C.controlFlowType, Literal(control), "control_flow_type"
            )
            if previous_statement is not None:
                self._add(
                    store, graph, previous_statement, G4C.flowsTo, statement_node, "code_flow"
                )
            previous_statement = statement_node
            self._abstract_statement_body(
                script, node, statement_node, statement_index, store, graph, variable_definitions
            )

    def _abstract_statement_body(
        self,
        script: PipelineScript,
        node: ast.stmt,
        statement_node: URIRef,
        statement_index: int,
        store: QuadStore,
        graph: URIRef,
        variable_definitions: Dict[str, URIRef],
    ) -> None:
        expression_index = 0
        # WALA-style expression-level flow: every sub-expression becomes a node
        # chained by evaluation-order flow edges.  This is the bulk of the
        # verbosity gap between GraphGen4Code and the LiDS graph.
        previous_expression: Optional[URIRef] = None
        expression_counter = 0
        for sub in ast.walk(node):
            if isinstance(sub, ast.expr):
                expression_counter += 1
                expression_node = G4C.term(
                    f"{script.pipeline_id}/stmt{statement_index}/expr{expression_counter}"
                )
                self._add(
                    store,
                    graph,
                    expression_node,
                    G4C.partOfStatement,
                    statement_node,
                    "code_flow",
                )
                if previous_expression is not None:
                    self._add(
                        store, graph, previous_expression, G4C.flowsTo, expression_node, "code_flow"
                    )
                previous_expression = expression_node
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                variable_node = G4C.term(f"{script.pipeline_id}/var/{sub.id}")
                self._add(
                    store, graph, variable_node, G4C.hasVariableName, Literal(sub.id), "variable_names"
                )
                if isinstance(sub.ctx, ast.Store):
                    variable_definitions[sub.id] = statement_node
                elif sub.id in variable_definitions:
                    self._add(
                        store,
                        graph,
                        variable_definitions[sub.id],
                        G4C.dataFlowsTo,
                        statement_node,
                        "data_flow",
                    )
            elif isinstance(sub, ast.Subscript):
                slice_node = sub.slice
                if isinstance(slice_node, ast.Constant) and isinstance(slice_node.value, str):
                    self._add(
                        store,
                        graph,
                        statement_node,
                        G4C.readsColumn,
                        Literal(slice_node.value),
                        "column_reads",
                    )
            elif isinstance(sub, ast.Call):
                expression_index += 1
                call_text = ast.unparse(sub.func) if hasattr(ast, "unparse") else "call"
                call_node = G4C.term(
                    f"{script.pipeline_id}/stmt{statement_index}/call{expression_index}"
                )
                self._add(store, graph, statement_node, G4C.invokes, call_node, "library_calls")
                self._add(
                    store, graph, call_node, G4C.calls, Literal(call_text), "library_calls"
                )
                for position, argument in enumerate(sub.args):
                    argument_node = G4C.term(
                        f"{script.pipeline_id}/stmt{statement_index}/call{expression_index}/arg{position}"
                    )
                    self._add(
                        store, graph, call_node, G4C.hasPositionalArgument, argument_node, "func_parameters"
                    )
                    self._add(
                        store,
                        graph,
                        argument_node,
                        G4C.hasParameterOrder,
                        Literal(position),
                        "func_parameter_order",
                    )
                    self._add(
                        store,
                        graph,
                        argument_node,
                        G4C.precededBy,
                        Literal(max(0, position - 1)),
                        "func_parameter_order",
                    )
                for keyword in sub.keywords:
                    if keyword.arg is None:
                        continue
                    argument_node = G4C.term(
                        f"{script.pipeline_id}/stmt{statement_index}/call{expression_index}/kw_{keyword.arg}"
                    )
                    self._add(
                        store, graph, call_node, G4C.hasKeywordArgument, argument_node, "func_parameters"
                    )

    def _add(
        self,
        store: QuadStore,
        graph: URIRef,
        subject,
        predicate,
        obj,
        aspect: Optional[str],
    ) -> None:
        inserted = store.add(subject, predicate, obj, graph=graph)
        if inserted and aspect is not None:
            self.report.triples_by_aspect[aspect] = self.report.triples_by_aspect.get(aspect, 0) + 1
