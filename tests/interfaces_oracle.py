"""The discovery API's per-call implementations: the differential oracle.

What ``KGLiDS.get_path_to_table`` / ``get_shortest_path_between_tables`` /
``search_keywords`` did before they read version-scoped derived views, moved
out of ``src/``: every call walks ``store.triples`` again, builds the whole
join graph as a dict of sets, runs an *unbounded* breadth-first search and
filters by ``hops`` afterwards, and looks column names up table by table.
Slow and obviously right; ``tests/test_interfaces.py`` compares the
production API against it.

Plain Python over the public ``QuadStore`` term API — no id columns, no
numpy, no ``networkx`` — except the similarity and library calls, which are
the SPARQL queries ``src/`` ran per call before those read views too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set

from repro.kg.ontology import DATASET_GRAPH, LiDSOntology, table_uri
from repro.rdf import RDF, Literal, URIRef


def join_graph(store) -> Dict[str, Set[str]]:
    """Undirected ``joinableWith`` adjacency, keyed by table URI string."""
    adjacency: Dict[str, Set[str]] = {}
    for triple in store.triples(None, LiDSOntology.joinableWith, None, graph=DATASET_GRAPH):
        if isinstance(triple.subject, URIRef) and isinstance(triple.object, URIRef):
            adjacency.setdefault(str(triple.subject), set()).add(str(triple.object))
            adjacency.setdefault(str(triple.object), set()).add(str(triple.subject))
    return adjacency


def distances(store, start: str) -> Dict[str, int]:
    """Hop count from ``start`` to every table it reaches (itself included)."""
    adjacency = join_graph(store)
    if start not in adjacency:
        return {}
    reached = {start: 0}
    frontier = [start]
    while frontier:
        discovered = []
        for node in frontier:
            for neighbour in adjacency[node]:
                if neighbour not in reached:
                    reached[neighbour] = reached[node] + 1
                    discovered.append(neighbour)
        frontier = discovered
    return reached


def targets_within(store, start: str, hops: int) -> Dict[str, int]:
    """``target URI -> hops`` for every other table within ``hops`` edges."""
    return {
        target: distance
        for target, distance in distances(store, start).items()
        if target != start and distance <= hops
    }


def table_label(store, uri: str) -> str:
    name = store.value(URIRef(uri), LiDSOntology.hasName, graph=DATASET_GRAPH)
    return str(name) if name is not None else uri


def is_path(store, labels: Sequence[str]) -> bool:
    """Whether consecutive labels are joined by an edge (labels may repeat
    across tables, so any pair of tables carrying them counts)."""
    adjacency = join_graph(store)
    carrying: Dict[str, Set[str]] = {}
    for uri in adjacency:
        carrying.setdefault(table_label(store, uri), set()).add(uri)
    return all(
        any(adjacency[uri] & carrying.get(after, set()) for uri in carrying.get(before, ()))
        for before, after in zip(labels, labels[1:])
    )


def column_names(store, table_node: Any) -> List[str]:
    names = []
    for triple in store.triples(None, LiDSOntology.isPartOf, table_node, graph=DATASET_GRAPH):
        if store.contains(triple.subject, RDF.type, LiDSOntology.Column, graph=DATASET_GRAPH):
            name = store.value(triple.subject, LiDSOntology.hasName, graph=DATASET_GRAPH)
            if name is not None:
                names.append(str(name))
    return names


def related_tables(storage, dataset: str, table: str, relation: str, k: int) -> List[Dict[str, Any]]:
    """``get_unionable_tables`` / ``get_joinable_tables`` as one SPARQL query
    per call; ``?other`` in the ORDER BY makes the order total."""
    result = storage.query(
        f"""
        SELECT ?other ?other_name ?other_dataset ?score WHERE {{
          GRAPH <http://kglids.org/resource/data/graph/datasets> {{
            << <{table_uri(dataset, table)}> kglids:{relation} ?other >> kglids:withCertainty ?score .
            ?other kglids:hasName ?other_name .
            ?other kglids:isPartOf ?d .
            ?d kglids:hasName ?other_dataset .
          }}
        }}
        ORDER BY DESC(?score) ?other
        LIMIT {int(k)}
        """
    )
    return [
        {
            "dataset": row["other_dataset"],
            "table": row["other_name"],
            "table_uri": str(row["other"]),
            "score": float(row["score"]),
        }
        for row in result.rows
    ]


def top_libraries(storage, k: int, task=None) -> List[Dict[str, Any]]:
    """``get_top_used_libraries`` as one SPARQL query per call."""
    of_task = "" if task is None else f"?pipeline kglids:hasTaskType {Literal(task).n3()} ."
    result = storage.query(
        f"""
        SELECT ?library_name (COUNT(DISTINCT ?pipeline) AS ?num_pipelines) WHERE {{
          GRAPH ?g {{
            ?statement kglids:callsLibrary ?library .
            ?statement kglids:isPartOf ?pipeline .
            {of_task}
          }}
          ?library kglids:hasName ?library_name .
        }}
        GROUP BY ?library_name
        ORDER BY DESC(?num_pipelines) ?library_name
        LIMIT {int(k)}
        """
    )
    return result.rows


def matches_conditions(searchable: str, conditions) -> bool:
    if not conditions:
        return True
    for condition in conditions:
        if isinstance(condition, str):
            if condition.lower() in searchable:
                return True
        elif all(term.lower() in searchable for term in condition):
            return True
    return False


def search_keywords(storage, conditions) -> List[Dict[str, Any]]:
    """Matching tables as row dicts, in the store's own (unspecified) order;
    ``columns`` is the list of column names, unordered."""
    result = storage.query(
        """
        SELECT DISTINCT ?table ?table_name ?dataset_name WHERE {
          GRAPH <http://kglids.org/resource/data/graph/datasets> {
            ?table a kglids:Table .
            ?table kglids:hasName ?table_name .
            ?table kglids:isPartOf ?dataset .
            ?dataset kglids:hasName ?dataset_name .
          }
        }
        """
    )
    rows = []
    for row in result.rows:
        columns = column_names(storage.graph, row["table"])
        searchable = " ".join([str(row["table_name"]), str(row["dataset_name"])] + columns).lower()
        if matches_conditions(searchable, conditions):
            rows.append(
                {
                    "dataset": row["dataset_name"],
                    "table": row["table_name"],
                    "table_uri": str(row["table"]),
                    "columns": columns,
                }
            )
    return rows
